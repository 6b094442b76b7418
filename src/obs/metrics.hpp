#pragma once

/// Process-wide metrics registry: lock-free counters, gauges, and
/// fixed-bucket latency histograms with p50/p95/p99 extraction.
///
/// Metrics are named by `MetricId`, a compile-time FNV-1a hash of a
/// string literal; runtime-composed names (per-block labels) go through
/// the `*_named` overloads which hash at call time. The registry is a
/// fixed-capacity open-addressed table of atomic slots: registration is
/// a CAS claim, updates are relaxed atomic RMWs, and `visit()` walks the
/// live slots without allocating, so a snapshot can be taken from any
/// thread while writers are active.
///
/// Recording is gated on a single relaxed atomic flag that defaults to
/// OFF — the disabled path is one load + branch, cheap enough for the
/// hottest call sites (per tree solve). Nothing here consumes RNG or
/// perturbs float accumulation order: output is bit-identical with
/// metrics on or off.
///
/// Histograms use power-of-two buckets over integer values (commit
/// latencies are recorded in microseconds): value v lands in bucket
/// floor(log2(max(v,1))), and percentiles report the bucket's upper
/// bound, i.e. an estimate within 2x of the true order statistic.

#include <cstdint>
#include <string_view>

namespace ssp::obs {

/// Compile-time FNV-1a (64-bit). Hash 0 is reserved for "empty slot";
/// the astronomically unlikely input hashing to 0 is remapped to 1.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;
}

/// A compile-time metric name. Pass string literals only: the pointer is
/// kept (for first-registration naming), not the characters. The
/// constructor is consteval so the hash is always folded at compile time
/// — the disabled fast path must stay one load + branch, never a
/// per-call string hash. Runtime-composed names use the `*_named` calls.
struct MetricId {
  std::uint64_t hash;
  const char* name;
  consteval MetricId(const char* n)  // NOLINT(google-explicit-constructor)
      : hash(fnv1a(n)), name(n) {}
};

enum class MetricKind : std::uint8_t {
  kCounter = 1,
  kGauge = 2,
  kHistogram = 3,
};

/// Global on/off switch. Defaults to off; `ssp_serve` and `--trace`
/// enable it. Safe to flip from any thread.
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// Monotonically increasing counter (use for event counts and summed
/// nanoseconds). No-ops when metrics are disabled.
void counter_add(MetricId id, std::uint64_t delta) noexcept;

/// Last-writer-wins instantaneous value (queue depths, sizes).
void gauge_set(MetricId id, std::int64_t value) noexcept;
void gauge_add(MetricId id, std::int64_t delta) noexcept;

/// Record one sample into a power-of-two-bucket histogram. `value` must
/// be non-negative; pick a unit (the serve layer uses microseconds).
void histogram_observe(MetricId id, double value) noexcept;

/// Runtime-composed-name variants for labels only known at run time
/// (e.g. "scale.block.3.components"). The name (truncated to
/// the slot's fixed buffer) is copied into the registry, so the caller
/// may pass a stack buffer.
void counter_add_named(std::string_view name, std::uint64_t delta) noexcept;
void histogram_observe_named(std::string_view name, double value) noexcept;

/// Read-only view of one histogram's state, valid only inside visit().
struct HistogramView {
  static constexpr int kBuckets = 44;
  const std::uint64_t* buckets;  ///< kBuckets relaxed-loaded counts
  std::uint64_t count;
  double sum;
  /// Upper bound (2^(i+1)) of the bucket where the cumulative count
  /// first reaches ceil(q * count); 0 when empty.
  double percentile(double q) const noexcept;
};

/// One live metric, passed to the visit() callback. `name` points into
/// the registry slot and remains valid for the process lifetime.
struct MetricEntry {
  const char* name;
  MetricKind kind;
  std::uint64_t counter;  ///< kCounter
  std::int64_t gauge;     ///< kGauge
  HistogramView hist;     ///< kHistogram
};

/// Walk every registered metric in name order-of-registration. The
/// callback must not re-enter the registry. Allocation-free; values are
/// relaxed snapshots (exact once writers are quiescent).
void visit_metrics(void (*fn)(const MetricEntry&, void*), void* ctx);

/// Convenience wrapper for lambdas/functors.
template <typename F>
void for_each_metric(F&& fn) {
  visit_metrics(
      [](const MetricEntry& e, void* ctx) { (*static_cast<F*>(ctx))(e); },
      &fn);
}

/// Number of registered metrics (registration persists across
/// enable/disable and reset of values).
int metric_count() noexcept;

/// Zero every value and drop every registration. Test-only: callers
/// must guarantee no concurrent writers.
void reset_metrics_for_tests() noexcept;

}  // namespace ssp::obs
