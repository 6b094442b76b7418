#include "probe.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// JSON string literal with escapes.
std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Shortest round-trip text of a double ("null" when not finite).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---- Spans -------------------------------------------------------------

thread_local std::vector<int> t_open_stack;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::open(const std::string& name, std::int64_t request) {
  if (!enabled()) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.parent = t_open_stack.empty() ? -1 : t_open_stack.back();
  rec.request = request;
  rec.tid = thread_index();
  {
    std::lock_guard<std::mutex> lk(mu_);
    rec.id = static_cast<int>(spans_.size());
    if (rec.request < 0 && rec.parent >= 0) {
      rec.request = spans_[static_cast<std::size_t>(rec.parent)].request;
    }
    rec.start = now_s();
    spans_.push_back(rec);
  }
  t_open_stack.push_back(rec.id);
  return rec.id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double end = now_s();
  {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  if (!t_open_stack.empty() && t_open_stack.back() == id) {
    t_open_stack.pop_back();
  }
}

void Tracer::set_request(int id, std::int64_t request) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].request = request;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  double origin = all.empty() ? 0.0 : all.front().start;
  for (const SpanRecord& s : all) origin = std::min(origin, s.start);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << json_quote(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << json_number((s.start - origin) * 1e6)
        << ",\"dur\":" << json_number((s.end - s.start) * 1e6)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = all[i].start;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, all[i].end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, e);
    }
    out[all[i].name] += (all[i].end - all[i].start) - covered;
  }
  return out;
}

// ---- Registry deltas ----------------------------------------------------

Counters read_counters() {
  Counters out;
  ssp::obs::for_each_metric([&out](const ssp::obs::MetricEntry& e) {
    if (e.kind == ssp::obs::MetricKind::kCounter) {
      out[e.name] = static_cast<double>(e.counter);
    } else if (e.kind == ssp::obs::MetricKind::kGauge) {
      out[e.name] = static_cast<double>(e.gauge);
    }
  });
  return out;
}

double delta(const Counters& before, const Counters& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double delta_matching(const Counters& before, const Counters& after,
                      const std::string& prefix, const std::string& suffix) {
  double sum = 0.0;
  for (const auto& [name, value] : after) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value - (before.count(name) != 0 ? before.at(name) : 0.0);
    }
  }
  return sum;
}

// ---- Process facts ------------------------------------------------------

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t hash_edges(std::span<const ssp::EdgeId> edges) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const ssp::EdgeId e : edges) {
    auto v = static_cast<std::uint64_t>(e);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// ---- Output --------------------------------------------------------------

void Report::sample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!muted_) samples_[name].push_back(value);
}

void Report::mute_samples(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  muted_ = on;
}

void Report::value(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  values_[name] = value;
}

void Report::text(const std::string& name, const std::string& value) {
  std::lock_guard<std::mutex> lk(mu_);
  texts_[name] = value;
}

void Report::gate(const std::string& name, bool ok, const std::string& detail) {
  std::lock_guard<std::mutex> lk(mu_);
  gates_.push_back({name, ok, detail});
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::op(bool ok) {
  std::lock_guard<std::mutex> lk(mu_);
  ++attempted_;
  if (!ok) ++failed_;
}

bool Report::gates_ok() const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const Gate& g) { return g.ok; });
}

std::int64_t Report::attempted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return attempted_;
}

std::int64_t Report::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_;
}

std::string Report::json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  os << "{\"samples\":{";
  bool first = true;
  for (const auto& [name, list] : samples_) {
    os << (first ? "" : ",") << json_quote(name) << ":[";
    for (std::size_t i = 0; i < list.size(); ++i) {
      os << (i == 0 ? "" : ",") << json_number(list[i]);
    }
    os << "]";
    first = false;
  }
  os << "},\"values\":{";
  first = true;
  for (const auto& [name, v] : values_) {
    os << (first ? "" : ",") << json_quote(name) << ":" << json_number(v);
    first = false;
  }
  os << "},\"text\":{";
  first = true;
  for (const auto& [name, v] : texts_) {
    os << (first ? "" : ",") << json_quote(name) << ":" << json_quote(v);
    first = false;
  }
  os << "},\"gates\":[";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    os << (i == 0 ? "" : ",") << "{\"name\":" << json_quote(gates_[i].name)
       << ",\"ok\":" << (gates_[i].ok ? "true" : "false")
       << ",\"detail\":" << json_quote(gates_[i].detail) << "}";
  }
  os << "],\"attempted\":" << attempted_ << ",\"failed\":" << failed_ << "}";
  return os.str();
}

}  // namespace perfbench
