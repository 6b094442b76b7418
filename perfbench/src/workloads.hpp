#pragma once

/// \file workloads.hpp
/// The four benchmark workloads. Each has an untimed `prep_*` step, run in
/// its own process before the measured one so that generating the input
/// counts neither in the timings nor in the peak RSS, and a `run_*` step
/// that sets up, warms up, measures for `seconds`, then verifies.

#include <cstdint>
#include <functional>
#include <string>

#include "core/sparsifier.hpp"
#include "probe.hpp"
#include "serve/client.hpp"

namespace perfbench {

/// Worker threads, pinned process-wide (`ssp::set_default_threads`) as
/// well as per engine, so no primitive follows hardware_concurrency().
/// Two of the host's cores leave room for the serve workload's client
/// threads and for other tenants of a shared machine.
inline constexpr int kThreads = 2;

/// Repetitions of the set-up step; `setup_s` is their median. Set-up
/// repeats at least kSetupRepeats times and, for cheap set-ups, until
/// kSetupMinSeconds have been spent (at most kSetupMaxRepeats times).
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupMinSeconds = 0.25;
inline constexpr int kSetupMaxRepeats = 1000;

/// True while another set-up repetition is due.
inline bool more_setup(int done, double spent) {
  return done < kSetupRepeats ||
         (spent < kSetupMinSeconds && done < kSetupMaxRepeats);
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void prep_mesh_precond(const RunConfig& cfg);
void run_mesh_precond(const RunConfig& cfg, Report& rep);

void prep_dense_network(const RunConfig& cfg);
void run_dense_network(const RunConfig& cfg, Report& rep);

void prep_outofcore_mesh(const RunConfig& cfg);
void run_outofcore_mesh(const RunConfig& cfg, Report& rep);

void prep_serve_churn(const RunConfig& cfg);
void run_serve_churn(const RunConfig& cfg, Report& rep);

/// Counts one serve request as an attempted operation; every `err` reply,
/// refusals (backpressure, admission limits) included, counts as failed.
/// Returns whether the reply was `ok`.
bool count_reply(Report& rep, const ssp::serve::ClientResponse& reply);

/// Self-test of count_reply against a live in-process server (needs a
/// writable working directory); reports each check through `expect`.
void serve_self_test(const std::function<void(bool, const char*)>& expect);

/// Engine options shared by every workload: σ² = 100, the default kPower
/// route, the given seed, and the pinned thread count.
ssp::SparsifyOptions engine_options(std::uint64_t seed);

/// Verified quality of `p` against `g` (`estimate_sparsifier_quality`,
/// run outside every timed window): records quality.* values and the
/// sigma2_gap / sigma2_overshoot inputs.
void record_quality(const ssp::Graph& g, const ssp::Graph& p,
                    double sigma2_reported, Report& rep);

/// Per-layer samples from registry deltas over an engine-driving interval
/// of `wall` seconds: stage seconds (tree/core), round and edge counts,
/// inner-solver counts and pool use. Counts and times are divided by
/// `per` (the number of operations in the interval); ratios are not.
void record_engine_layers(const Counters& before, const Counters& after,
                          double wall, double per, Report& rep);

/// What one pass of a workload is for.
enum class Phase {
  kWarmUp,   ///< untimed, samples muted; panels run their first instance only
  kMeasure,  ///< the end-to-end window, tracing off
  kTraced,   ///< the traced window: span recorder and obs registry on
};

/// Runs `pass`: once as the warm-up, then repeatedly for `cfg.seconds`
/// with tracing off (calling `between_passes` after each pass, outside its
/// timing), and — in a traced run — for another `cfg.seconds` with tracing
/// on. A pass always completes, so a window may overrun.
void measure_windows(const RunConfig& cfg, Report& rep,
                     const std::function<void(Phase)>& pass,
                     const std::function<void()>& between_passes);

}  // namespace perfbench
