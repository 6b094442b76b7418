#pragma once

/// \file bench_common.hpp
/// Shared helpers for the paper-reproduction benchmark binaries: the proxy
/// workloads standing in for the paper's SuiteSparse matrices (not shipped
/// with the repository; each proxy below names the matrix it stands for),
/// fixed-width table printing, and the machine-readable
/// `BENCH_<name>.json` report writer behind the perf-trajectory tracking
/// (every bench emits stage timings, graph sizes, and quality metrics as
/// JSON next to its text tables).
///
/// Set SSP_BENCH_LARGE=1 to run paper-scale sizes (millions of vertices);
/// the defaults are laptop-scale and finish each binary in well under two
/// minutes while preserving every trend.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators/airfoil.hpp"
#include "graph/generators/knn.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/points.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ssp::bench {

/// True when SSP_BENCH_LARGE=1: paper-scale workloads.
inline bool large_mode() {
  const char* v = std::getenv("SSP_BENCH_LARGE");
  return v != nullptr && std::string(v) == "1";
}

/// Scales a default dimension up in large mode.
inline Vertex dim(Vertex normal, Vertex large) {
  return large_mode() ? large : normal;
}

// ---- Proxy workloads (paper test case -> synthetic stand-in) ----

/// `G3_circuit` (1.6M-node circuit mesh): 2-D grid, conductances over two
/// decades.
inline Graph g3_circuit_proxy(Vertex side, std::uint64_t seed = 101) {
  Rng rng(seed);
  return grid_2d(side, side, WeightModel::log_uniform(0.1, 10.0), &rng);
}

/// `thermal2` (1.2M-node FE thermal problem): triangulated grid, smooth
/// coefficient variation.
inline Graph thermal2_proxy(Vertex side, std::uint64_t seed = 102) {
  Rng rng(seed);
  return triangulated_grid(side, side, WeightModel::uniform(0.5, 2.0), &rng);
}

/// `ecology2` (1M-node 5-point stencil): unit-weight 2-D grid.
inline Graph ecology2_proxy(Vertex side, std::uint64_t /*seed*/ = 103) {
  return grid_2d(side, side);
}

/// `tmt_sym` (0.7M-node electromagnetics FE): 8-neighbor grid.
inline Graph tmt_sym_proxy(Vertex side, std::uint64_t seed = 104) {
  Rng rng(seed);
  return grid_2d_8(side, side, WeightModel::uniform(0.5, 2.0), &rng);
}

/// `parabolic_fem` (0.5M-node parabolic FE): thin 3-D slab.
inline Graph parabolic_fem_proxy(Vertex side, std::uint64_t seed = 105) {
  Rng rng(seed);
  return grid_3d(side, side, 4, WeightModel::uniform(0.5, 2.0), &rng);
}

/// FE solids for Table 1 / Table 4 (fe_rotor, brack2, fe_tooth, auto):
/// 3-D grids with log-uniform stiffness.
inline Graph fe_solid_proxy(Vertex side, std::uint64_t seed) {
  Rng rng(seed);
  return grid_3d(side, side, side, WeightModel::log_uniform(0.2, 5.0), &rng);
}

/// Protein / structural matrices (pdb1HYS, bcsstk36, raefsky3): kNN graph
/// of a clustered 3-D point cloud. Inverse-distance weights keep the
/// dynamic range physical (Gaussian similarities of far-apart clusters
/// underflow and make reference eigensolves meaningless).
inline Graph protein_proxy(Index points, Index k, std::uint64_t seed) {
  Rng rng(seed);
  const PointCloud pc = gaussian_mixture_points(points, 3, 12, 0.03, rng);
  return knn_graph(pc, k, KnnWeight::kInverseDistance);
}

/// `coAuthorsDBLP` (300k-node collaboration network): preferential
/// attachment.
inline Graph dblp_proxy(Vertex n, std::uint64_t seed = 106) {
  Rng rng(seed);
  return barabasi_albert(n, 3, rng);
}

/// `appu` (14k-node dense random graph, ~65 nnz/row).
inline Graph appu_proxy(Vertex n, std::uint64_t seed = 107) {
  Rng rng(seed);
  return erdos_renyi_connected(n, static_cast<EdgeId>(n) * 30, rng);
}

/// `RCV-80NN` (80-nearest-neighbor document graph): 80-NN over a
/// Gaussian-mixture embedding cloud.
inline Graph rcv_proxy(Index points, std::uint64_t seed = 108) {
  Rng rng(seed);
  const PointCloud pc = gaussian_mixture_points(points, 16, 20, 0.08, rng);
  return knn_graph(pc, 80);
}

// ---- Machine-readable reports (BENCH_<name>.json) ----

/// Minimal ordered JSON value: object (insertion-ordered), array, number,
/// string, bool, null. Built fluently, dumped with stable formatting so
/// report diffs stay reviewable.
class Json {
 public:
  Json() = default;  // null
  Json(double v) : kind_(Kind::kNumber), number_(v) {}
  Json(int v) : kind_(Kind::kNumber), number_(v) {}
  Json(long v) : kind_(Kind::kNumber), number_(static_cast<double>(v)) {}
  Json(long long v) : kind_(Kind::kNumber), number_(static_cast<double>(v)) {}
  Json(std::size_t v)
      : kind_(Kind::kNumber), number_(static_cast<double>(v)) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(const char* v) : kind_(Kind::kString), string_(v) {}
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  /// Object field (created on first use; this must be an object/null).
  Json& operator[](const std::string& key) {
    require(Kind::kObject);
    for (auto& [k, v] : members_) {
      if (k == key) return v;
    }
    members_.emplace_back(key, Json());
    return members_.back().second;
  }

  /// Sets an object field and returns *this for chaining.
  Json& set(const std::string& key, Json value) {
    (*this)[key] = std::move(value);
    return *this;
  }

  /// Appends to an array (this must be an array/null); returns the
  /// appended element.
  Json& push(Json value) {
    require(Kind::kArray);
    items_.push_back(std::move(value));
    return items_.back();
  }

  void dump(std::string& out, int depth = 0) const {
    switch (kind_) {
      case Kind::kNull:
        out += "null";
        return;
      case Kind::kBool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::kNumber: {
        if (!std::isfinite(number_)) {
          out += "null";  // JSON has no NaN/Inf
          return;
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
        out += buf;
        return;
      }
      case Kind::kString:
        append_escaped(out, string_);
        return;
      case Kind::kArray: {
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
          if (i != 0) out += ", ";
          items_[i].dump(out, depth + 1);
        }
        out += ']';
        return;
      }
      case Kind::kObject: {
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out += i == 0 ? "\n" : ",\n";
          out.append(static_cast<std::size_t>(depth + 1) * 2, ' ');
          append_escaped(out, members_[i].first);
          out += ": ";
          members_[i].second.dump(out, depth + 1);
        }
        if (!members_.empty()) {
          out += '\n';
          out.append(static_cast<std::size_t>(depth) * 2, ' ');
        }
        out += '}';
        return;
      }
    }
  }

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  void require(Kind kind) {
    if (kind_ == Kind::kNull) kind_ = kind;  // lazily become a container
    if (kind_ != kind) {
      std::fprintf(stderr, "bench::Json: container kind mismatch\n");
      std::abort();
    }
  }

  static void append_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        case '\r':
          out += "\\r";
          break;
        case '\b':
          out += "\\b";
          break;
        case '\f':
          out += "\\f";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  Kind kind_ = Kind::kNull;
  double number_ = 0.0;
  bool bool_ = false;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

// ---- Stage times from the metrics registry ----

/// Seconds each `<stage>.ns` registry counter advanced over one run, keyed
/// by the counter name without ".ns" (e.g. "engine.stage.embedding" or
/// "scale.stage.stitch"). The registry is the one record of stage times.
class StageSeconds {
 public:
  /// Runs `body` with metrics on (restoring the switch afterwards) and
  /// records the counter deltas it caused.
  template <typename Body>
  static StageSeconds measure(Body&& body) {
    const bool was_on = obs::metrics_enabled();
    const std::map<std::string, std::uint64_t> before = read_ns();
    obs::set_metrics_enabled(true);
    body();
    obs::set_metrics_enabled(was_on);
    StageSeconds out;
    for (const auto& [stage, ns] : read_ns()) {
      const auto it = before.find(stage);
      const std::uint64_t base = it == before.end() ? 0 : it->second;
      out.seconds_[stage] = static_cast<double>(ns - base) * 1e-9;
    }
    return out;
  }

  /// Seconds of `stage` (0 when the run never reached it).
  [[nodiscard]] double operator[](const std::string& stage) const {
    const auto it = seconds_.find(stage);
    return it == seconds_.end() ? 0.0 : it->second;
  }

 private:
  static std::map<std::string, std::uint64_t> read_ns() {
    std::map<std::string, std::uint64_t> ns;
    obs::for_each_metric([&ns](const obs::MetricEntry& e) {
      const std::string_view name(e.name);
      if (e.kind == obs::MetricKind::kCounter && name.ends_with(".ns")) {
        ns[std::string(name.substr(0, name.size() - 3))] = e.counter;
      }
    });
    return ns;
  }

  std::map<std::string, double> seconds_;
};

/// Accumulates one bench binary's structured results and writes them to
/// `BENCH_<name>.json` in the working directory (explicitly via write(),
/// or from the destructor as a backstop). Typical use:
///
///   bench::Report report("table1_eigenvalues");
///   report.section("cases").push(Json::object()
///       .set("graph", name).set("n", g.num_vertices())
///       .set("seconds", t.seconds()));
///   ...
///   report.write();
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {
    root_ = Json::object();
    root_.set("bench", name_).set("large_mode", large_mode());
  }

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  ~Report() {
    if (!written_) write();
  }

  [[nodiscard]] Json& root() { return root_; }

  /// Root-level array, created on first use.
  [[nodiscard]] Json& section(const std::string& key) { return root_[key]; }

  void write() {
    const std::string path = "BENCH_" + name_ + ".json";
    std::string out;
    root_.dump(out);
    out += '\n';
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
    written_ = true;
  }

 private:
  std::string name_;
  Json root_;
  bool written_ = false;
};

// ---- Table printing ----

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// Prints a banner naming the reproduced paper artifact.
inline void print_banner(const char* title) {
  std::printf("\n");
  print_rule(78);
  std::printf("%s\n", title);
  print_rule(78);
}

}  // namespace ssp::bench
