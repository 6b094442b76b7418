#pragma once

/// \file probe.hpp
/// Measurement plumbing of the benchmark runner, all of it outside the
/// library: a monotonic clock, the benchmark's own span recorder (written
/// out as a Chrome trace when the run ends), deltas of the library's
/// `src/obs/` registry counters, peak RSS, host facts, and the sample
/// sink the runner prints as JSON.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

/// Seconds since an arbitrary fixed origin (steady clock).
double now_s();

// ---- Spans -------------------------------------------------------------

/// One recorded span: [start, end] seconds on the `now_s()` clock, the
/// span that caused it (-1 = root), and a request id shared by spans of
/// one logical operation (a commit and its server-side split).
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int id = 0;
  int parent = -1;
  std::int64_t request = -1;
  int tid = 0;
};

/// In-memory span store. Disabled (the untraced runs) it records nothing.
/// Thread-safe: each thread keeps its own parent stack.
class Tracer {
 public:
  void enable(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Opens a span under the calling thread's innermost open span; returns
  /// its id (-1 when disabled).
  int open(const std::string& name, std::int64_t request = -1);
  /// Closes span `id` (no-op for -1).
  void close(int id);
  /// Sets the request id of span `id` once it is known (no-op for -1).
  void set_request(int id, std::int64_t request);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Writes every span as Chrome `trace_event` JSON ("X" events, with the
  /// parent and request ids as args). Returns false when the file cannot
  /// be written.
  bool write_chrome_trace(const std::string& path) const;

  /// Self time per span name: duration minus the union of its direct
  /// children's intervals, summed over all spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer();

/// RAII span on the global tracer.
class Scope {
 public:
  explicit Scope(const std::string& name, std::int64_t request = -1)
      : id_(tracer().open(name, request)) {}
  ~Scope() { tracer().close(id_); }
  /// The span's id (-1 when tracing is off), for Tracer::set_request.
  [[nodiscard]] int id() const { return id_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ---- Registry deltas ----------------------------------------------------

/// Snapshot of every counter and gauge in the library's obs registry.
using Counters = std::map<std::string, double>;

Counters read_counters();

/// after[name] - before[name] (missing names count as 0).
double delta(const Counters& before, const Counters& after,
             const std::string& name);

/// Sum of the deltas of every counter whose name starts with `prefix` and
/// ends with `suffix`.
double delta_matching(const Counters& before, const Counters& after,
                      const std::string& prefix, const std::string& suffix);

// ---- Process facts ------------------------------------------------------

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mib();

/// FNV-1a over an edge-id list: the identity of a sparsifier's edge set
/// and acceptance order.
std::uint64_t hash_edges(std::span<const ssp::EdgeId> edges);

// ---- Output --------------------------------------------------------------

/// Everything a run reports: per-repetition samples (the Python side
/// takes medians and percentiles), single values, correctness gates, and
/// the attempted/failed operation counts.
class Report {
 public:
  void sample(const std::string& name, double value);
  /// While muted (the warm-up), sample() records nothing.
  void mute_samples(bool on);
  void value(const std::string& name, double value);
  void text(const std::string& name, const std::string& value);
  /// Records a gate outcome; a failed gate also counts a failed op.
  void gate(const std::string& name, bool ok, const std::string& detail = "");
  /// Counts one attempted operation, failed when `ok` is false.
  void op(bool ok);

  [[nodiscard]] bool gates_ok() const;
  [[nodiscard]] std::int64_t attempted() const;
  [[nodiscard]] std::int64_t failed() const;

  /// The single-line JSON document the Python front end parses.
  [[nodiscard]] std::string json() const;

 private:
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> texts_;
  std::vector<Gate> gates_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool muted_ = false;
};

}  // namespace perfbench
