#include "storage/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

static_assert(std::endian::native == std::endian::little,
              "checkpoint I/O requires a little-endian host");

namespace ssp::storage {

namespace {

constexpr std::uint64_t kFixedHeaderBytes = 88;
constexpr std::uint64_t kStatsRecordBytes = 18 * 8;

/// Append-only little-endian encoder over a byte buffer.
class Writer {
 public:
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto pos = buf_.size();
    buf_.resize(pos + sizeof(T));
    std::memcpy(buf_.data() + pos, &value, sizeof(T));
  }

  [[nodiscard]] const std::vector<char>& bytes() const { return buf_; }

 private:
  std::vector<char> buf_;
};

/// Bounds-checked little-endian decoder; every failure names the byte
/// offset and field per the SspbError contract.
class Reader {
 public:
  Reader(std::string path, std::vector<char> buf)
      : path_(std::move(path)), buf_(std::move(buf)) {}

  template <typename T>
  T get(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > buf_.size()) {
      throw SspbError(path_, pos_, field,
                      "file is " + std::to_string(buf_.size()) +
                          " bytes — truncated while reading " +
                          std::to_string(sizeof(T)) + " bytes");
    }
    T value;
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Like get<std::int64_t>, but rejects negative or absurd counts.
  std::int64_t get_count(const char* field) {
    const std::uint64_t at = pos_;
    const auto value = get<std::int64_t>(field);
    if (value < 0) {
      throw SspbError(path_, at, field,
                      "count " + std::to_string(value) + " is negative");
    }
    return value;
  }

  [[nodiscard]] std::uint64_t pos() const { return pos_; }
  [[nodiscard]] std::uint64_t size() const { return buf_.size(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::vector<char> buf_;
  std::uint64_t pos_ = 0;
};

// A stats record keeps four retired slots (tree_removed, tree_swaps,
// dirty_fraction, route) so the layout stays at version 1 and older files
// restore: written as 0, skipped on read. The route slot is still
// range-checked, as outside input.
void put_stats(Writer& w, const UpdateStats& s) {
  w.put<std::int64_t>(s.batch);
  w.put<std::int64_t>(s.inserted);
  w.put<std::int64_t>(s.removed);
  w.put<std::int64_t>(s.reweighted);
  w.put<std::int64_t>(0);  // retired
  w.put<std::int64_t>(0);  // retired
  w.put<std::int64_t>(s.graph_edges);
  w.put<std::int64_t>(s.sparsifier_edges);
  w.put<double>(0.0);  // retired
  w.put<double>(s.sigma2_estimate);
  w.put<double>(s.seconds);
  w.put<std::uint64_t>(0);  // retired route slot
  w.put<std::uint64_t>(s.reached_target ? 1 : 0);
  for (const double sec : s.stage_seconds) w.put<double>(sec);
}

UpdateStats get_stats(Reader& r) {
  UpdateStats s;
  s.batch = r.get<std::int64_t>("history.batch");
  s.inserted = r.get<std::int64_t>("history.inserted");
  s.removed = r.get<std::int64_t>("history.removed");
  s.reweighted = r.get<std::int64_t>("history.reweighted");
  (void)r.get<std::int64_t>("history.retired");
  (void)r.get<std::int64_t>("history.retired");
  s.graph_edges = r.get<std::int64_t>("history.graph_edges");
  s.sparsifier_edges = r.get<std::int64_t>("history.sparsifier_edges");
  (void)r.get<double>("history.retired");
  s.sigma2_estimate = r.get<double>("history.sigma2_estimate");
  s.seconds = r.get<double>("history.seconds");
  const std::uint64_t route_at = r.pos();
  const auto route = r.get<std::uint64_t>("history.route");
  if (route > 2) {
    throw SspbError(r.path(), route_at, "history.route",
                    "route " + std::to_string(route) +
                        " out of range [0, 2]");
  }
  s.reached_target = r.get<std::uint64_t>("history.reached_target") != 0;
  for (double& sec : s.stage_seconds) {
    sec = r.get<double>("history.stage_seconds");
  }
  return s;
}

}  // namespace

void save_checkpoint(const std::string& path,
                     const SparsifierCheckpoint& ckpt) {
  Writer w;
  w.put<std::uint32_t>(kSspcMagic);
  w.put<std::uint32_t>(kSspcVersion);
  w.put<std::uint64_t>(ckpt.commits);
  w.put<std::int64_t>(ckpt.state.vertices);
  w.put<std::int64_t>(ckpt.state.edges);
  w.put<std::int64_t>(static_cast<std::int64_t>(ckpt.state.tree_edges.size()));
  w.put<std::int64_t>(
      static_cast<std::int64_t>(ckpt.state.offtree_edges.size()));
  w.put<std::int64_t>(static_cast<std::int64_t>(ckpt.state.history.size()));
  w.put<double>(ckpt.state.lambda_min);
  w.put<double>(ckpt.state.lambda_max);
  w.put<double>(ckpt.state.sigma2_estimate);
  w.put<std::uint32_t>(ckpt.state.reached_target ? 1 : 0);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(ckpt.state.status));
  for (const EdgeId e : ckpt.state.tree_edges) w.put<std::int64_t>(e);
  for (const EdgeId e : ckpt.state.offtree_edges) w.put<std::int64_t>(e);
  for (const UpdateStats& s : ckpt.state.history) put_stats(w, s);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot open '" + tmp +
                               "' for writing");
    }
    out.write(w.bytes().data(),
              static_cast<std::streamsize>(w.bytes().size()));
    if (!out) {
      throw std::runtime_error("checkpoint: short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: cannot rename '" + tmp +
                             "' over '" + path + "'");
  }
  obs::counter_add("storage.checkpoint.saves", 1);
  obs::counter_add("storage.checkpoint.bytes_written", w.bytes().size());
}

SparsifierCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  std::vector<char> buf((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  Reader r(path, std::move(buf));
  obs::counter_add("storage.checkpoint.loads", 1);
  obs::counter_add("storage.checkpoint.bytes_read", r.size());

  const auto magic = r.get<std::uint32_t>("magic");
  if (magic != kSspcMagic) {
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x", magic);
    throw SspbError(path, 0, "magic",
                    "expected \"SSPC\", found bytes 0x" + std::string(hex));
  }
  const auto version = r.get<std::uint32_t>("version");
  if (version != kSspcVersion) {
    throw SspbError(path, 4, "version",
                    "unsupported version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kSspcVersion) + ")");
  }

  SparsifierCheckpoint ckpt;
  ckpt.commits = r.get<std::uint64_t>("commits");
  const auto n = r.get_count("n");
  if (n > std::int64_t{0x7fffffff}) {
    throw SspbError(path, 16, "n",
                    "vertex count " + std::to_string(n) +
                        " out of range [0, 2^31)");
  }
  ckpt.state.vertices = static_cast<Vertex>(n);
  ckpt.state.edges = r.get_count("m");
  const auto tree_count = r.get_count("tree_count");
  const auto offtree_count = r.get_count("offtree_count");
  const auto history_count = r.get_count("history_count");
  // Declared counts must agree with the actual file size before any
  // array is read, so truncation is reported here, not element by
  // element.
  const std::uint64_t expect =
      kFixedHeaderBytes +
      8 * (static_cast<std::uint64_t>(tree_count) +
           static_cast<std::uint64_t>(offtree_count)) +
      kStatsRecordBytes * static_cast<std::uint64_t>(history_count);
  if (r.size() != expect) {
    throw SspbError(path, r.size(), "file",
                    "file is " + std::to_string(r.size()) +
                        " bytes, counts require " + std::to_string(expect) +
                        (r.size() < expect ? " — truncated" : " — oversized"));
  }
  ckpt.state.lambda_min = r.get<double>("lambda_min");
  ckpt.state.lambda_max = r.get<double>("lambda_max");
  ckpt.state.sigma2_estimate = r.get<double>("sigma2_estimate");
  ckpt.state.reached_target = r.get<std::uint32_t>("reached_target") != 0;
  const std::uint64_t status_at = r.pos();
  const auto status = r.get<std::uint32_t>("status");
  if (status > 4 || !is_terminal(static_cast<StepStatus>(status))) {
    throw SspbError(path, status_at, "status",
                    "status " + std::to_string(status) +
                        " is not a terminal StepStatus");
  }
  ckpt.state.status = static_cast<StepStatus>(status);

  ckpt.state.tree_edges.reserve(static_cast<std::size_t>(tree_count));
  for (std::int64_t i = 0; i < tree_count; ++i) {
    const std::uint64_t at = r.pos();
    const auto e = r.get<std::int64_t>("tree_edges");
    if (e < 0 || e >= ckpt.state.edges) {
      throw SspbError(path, at, "tree_edges",
                      "edge id " + std::to_string(e) +
                          " out of range [0, " +
                          std::to_string(ckpt.state.edges) + ")");
    }
    ckpt.state.tree_edges.push_back(e);
  }
  ckpt.state.offtree_edges.reserve(static_cast<std::size_t>(offtree_count));
  for (std::int64_t i = 0; i < offtree_count; ++i) {
    const std::uint64_t at = r.pos();
    const auto e = r.get<std::int64_t>("offtree_edges");
    if (e < 0 || e >= ckpt.state.edges) {
      throw SspbError(path, at, "offtree_edges",
                      "edge id " + std::to_string(e) +
                          " out of range [0, " +
                          std::to_string(ckpt.state.edges) + ")");
    }
    ckpt.state.offtree_edges.push_back(e);
  }
  ckpt.state.history.reserve(static_cast<std::size_t>(history_count));
  for (std::int64_t i = 0; i < history_count; ++i) {
    ckpt.state.history.push_back(get_stats(r));
  }
  return ckpt;
}

}  // namespace ssp::storage
