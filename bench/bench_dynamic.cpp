// Dynamic update layer (src/dynamic/) vs cold rebuild: wall-clock and
// quality (κ via the shared estimator) across update-batch sizes, two
// generator families and two workloads. Three measurements per point:
//
//   cold    — what a user without the dynamic layer does: rerun a fresh
//             engine on the updated graph (canonical kMaxWeight backbone,
//             same per-batch seed, so the output matches the exact mode
//             bit for bit — checked, and a mismatch fails the run). The
//             timer covers ONLY the sparsify() call: graph mutation is
//             paid identically by every mode and the incremental path
//             never copies the graph, so charging a per-batch rebuild to
//             the baseline would inflate every speedup.
//   exact   — DynamicSparsifier, bit-identical to cold (Kruskal over the
//             kept edge order + engine rebind).
//   refine  — DynamicSparsifier with warm_refine: keeps the previous
//             selection, so an update that leaves κ under target costs
//             one estimation round instead of a full densification.
//
// This binary is also the CI regression gate. It exits non-zero when any
// row's exact or refine sparsifier verifies (estimate_sparsifier_quality)
// above kGateMaxOvershoot × the σ² target, or when any row's cold/exact
// bit-parity check fails.
//
// Emits BENCH_bench_dynamic.json for the perf trajectory.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "graph/generators/community.hpp"
#include "harness.hpp"  // tests/harness.hpp: shared update-script generator
#include "scale/quality.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace {

using namespace ssp;
using bench::dim;
using bench::Json;

constexpr double kSigma2 = 100.0;
constexpr Index kBatches = 5;
/// Verified κ may exceed the target by at most this factor — the bound
/// perfbench puts on `sigma2_overshoot`.
constexpr double kGateMaxOvershoot = 1.1;

/// The two measured workloads. `kReweight` is the paper's motivating
/// pattern — circuit parameter updates change edge weights, not topology:
/// reweight-only batches keep the graph finalized, so the incremental path
/// pays no O(m) compaction. `kMixed` (~60% reweights, ~20% inserts, ~20%
/// deletes) adds topology churn: every delete batch costs O(m) compaction
/// that the cold baseline also pays only inside its rebuild.
enum class Workload { kReweight, kMixed };

const char* to_string(Workload w) {
  return w == Workload::kReweight ? "reweight" : "mixed";
}

std::vector<UpdateBatch> make_script(const Graph& g, EdgeId batch_size,
                                     Workload workload, Rng& rng) {
  ssp::testing::ScriptOptions opts;
  opts.batches = kBatches;
  if (workload == Workload::kReweight) {
    opts.reweights_per_batch = std::max<Index>(1, batch_size);
    opts.inserts_per_batch = 0;
    opts.deletes_per_batch = 0;
  } else {
    opts.reweights_per_batch = std::max<Index>(1, batch_size * 3 / 5);
    opts.inserts_per_batch = std::max<Index>(1, batch_size / 5);
    opts.deletes_per_batch = std::max<Index>(1, batch_size / 5);
  }
  return ssp::testing::make_update_script(g, rng, opts);
}

struct ModeResult {
  double update_seconds = 0.0;  ///< batches only (initial build excluded)
  double sigma2 = 0.0;          ///< independent κ estimate, final state
  EdgeId edges = 0;
  std::vector<EdgeId> edge_ids;
};

/// Failures accumulated across points; reported and turned into a
/// non-zero exit at the end so one bad point doesn't mask another.
struct Gate {
  std::vector<std::string> failures;
  void fail(std::string what) {
    std::printf("GATE FAILURE: %s\n", what.c_str());
    failures.push_back(std::move(what));
  }
};

DynamicOptions make_options(bool refine) {
  DynamicOptions opts;
  opts.base.sigma2 = kSigma2;
  opts.warm_refine = refine;
  return opts;
}

ModeResult run_dynamic_mode(const Graph& g,
                            const std::vector<UpdateBatch>& script,
                            bool refine) {
  DynamicSparsifier dyn(g, make_options(refine));
  const WallTimer timer;
  for (const UpdateBatch& batch : script) dyn.apply(batch);
  ModeResult out;
  out.update_seconds = timer.seconds();
  out.edges = dyn.result().num_edges();
  out.edge_ids = dyn.result().edges;
  out.sigma2 = estimate_sparsifier_quality(
                   dyn.graph(), dyn.result().extract(dyn.graph()))
                   .sigma2;
  return out;
}

/// The no-dynamic-layer baseline: after every batch, run a cold engine on
/// the updated graph with the same canonical backbone and per-batch seed.
/// Mutations advance a shadow graph OUTSIDE the timer — every mode pays
/// them equally, and the old habit of also timing a full Graph copy per
/// batch overstated cold cost (and thus every speedup) by the copy's
/// O(m) for work the incremental path never does.
ModeResult run_cold_mode(const Graph& g,
                         const std::vector<UpdateBatch>& script) {
  const SparsifyOptions base = make_options(false).base;
  Graph current = g;
  ModeResult out;
  for (std::size_t b = 0; b < script.size(); ++b) {
    // Advance the shadow graph exactly like the layer does — untimed.
    const UpdateBatch& batch = script[b];
    for (const WeightUpdate& wu : batch.reweight) {
      current.set_weight(wu.edge, wu.weight);
    }
    for (const Edge& e : batch.insert) current.add_edge(e.u, e.v, e.weight);
    current.remove_edges(batch.remove);
    current.finalize();

    SparsifyOptions cold = base;
    cold.backbone = BackboneKind::kMaxWeight;
    cold.seed = DynamicSparsifier::batch_seed(base.seed,
                                              static_cast<Index>(b) + 1);
    const WallTimer timer;
    const SparsifyResult res = sparsify(current, cold);
    out.update_seconds += timer.seconds();
    if (b + 1 == script.size()) {
      out.edges = res.num_edges();
      out.edge_ids = res.edges;
      // No independent quality estimate here: bit-parity with the exact
      // mode is enforced below, so cold's κ IS exact's κ — measuring it
      // again would double the most expensive part of every point.
    }
  }
  return out;
}

void run_point(const char* name, const Graph& g, EdgeId batch_size,
               Workload workload, Json& rows, Gate& gate) {
  Rng rng(77);
  const std::vector<UpdateBatch> script =
      make_script(g, batch_size, workload, rng);

  const ModeResult exact = run_dynamic_mode(g, script, /*refine=*/false);
  const ModeResult refine = run_dynamic_mode(g, script, /*refine=*/true);
  const ModeResult cold = run_cold_mode(g, script);

  const std::string point = std::string(name) + " " + to_string(workload) +
                            " batch=" + std::to_string(batch_size);
  if (cold.edge_ids != exact.edge_ids) {
    gate.fail(point +
              ": exact mode diverged from cold rebuild (bit-parity broken)");
  }
  const double bound = kGateMaxOvershoot * kSigma2;
  if (!(exact.sigma2 <= bound && refine.sigma2 <= bound)) {  // NaN fails
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ": verified sigma2 exact %.2f / refine %.2f above %.1f",
                  exact.sigma2, refine.sigma2, bound);
    gate.fail(point + buf);
  }

  const double exact_speedup = cold.update_seconds / exact.update_seconds;
  const double refine_speedup = cold.update_seconds / refine.update_seconds;
  std::printf("%6lld  %8.3f %8.3f %8.3f   %6.2fx %6.2fx   %8.2f %8.2f\n",
              static_cast<long long>(batch_size), cold.update_seconds,
              exact.update_seconds, refine.update_seconds, exact_speedup,
              refine_speedup, exact.sigma2, refine.sigma2);

  rows.push(Json::object()
                .set("graph", name)
                .set("workload", to_string(workload))
                .set("batch_size", static_cast<long long>(batch_size))
                .set("batches", static_cast<long long>(kBatches))
                .set("cold_seconds", cold.update_seconds)
                .set("exact_seconds", exact.update_seconds)
                .set("refine_seconds", refine.update_seconds)
                .set("exact_speedup_vs_cold", exact_speedup)
                .set("refine_speedup_vs_cold", refine_speedup)
                .set("cold_sigma2", exact.sigma2)  // == exact by bit-parity
                .set("exact_sigma2", exact.sigma2)
                .set("refine_sigma2", refine.sigma2)
                .set("exact_edges", static_cast<long long>(exact.edges))
                .set("refine_edges", static_cast<long long>(refine.edges))
                .set("bit_parity", cold.edge_ids == exact.edge_ids)
                .set("incremental_beats_cold",
                     exact.update_seconds < cold.update_seconds ||
                         refine.update_seconds < cold.update_seconds));
}

void run_graph(const char* name, const Graph& g, Workload workload,
               bench::Report& report, Gate& gate) {
  bench::print_banner(("dynamic updates vs cold rebuild — " +
                       std::string(name) + " [" + to_string(workload) + "]")
                          .c_str());
  std::printf("|V| = %d  |E| = %lld  sigma2 target %.0f  %lld batches/point\n",
              g.num_vertices(), static_cast<long long>(g.num_edges()),
              kSigma2, static_cast<long long>(kBatches));
  std::printf("%6s  %8s %8s %8s   %6s %6s   %8s %8s\n", "batch", "cold_s",
              "exact_s", "refine_s", "ex_spd", "rf_spd", "ex_s2", "rf_s2");
  bench::print_rule(76);
  Json& rows = report.section("cases");
  for (const EdgeId batch_size : {8, 64, 512}) {
    run_point(name, g, batch_size, workload, rows, gate);
  }
}

}  // namespace

int main() {
  set_default_threads(std::max(4, hardware_threads()));
  bench::Report report("bench_dynamic");
  report.root().set("sigma2_target", kSigma2);
  Gate gate;

  for (const Workload workload : {Workload::kReweight, Workload::kMixed}) {
    run_graph("g3_circuit_proxy", bench::g3_circuit_proxy(dim(44, 320)),
              workload, report, gate);
    run_graph("dblp_proxy", bench::dblp_proxy(dim(1800, 120000)), workload,
              report, gate);
  }

  report.write();
  if (!gate.failures.empty()) {
    std::printf("\n%zu gate failure(s) — failing the bench.\n",
                gate.failures.size());
    return 1;
  }
  std::printf("\nGate passed: every row verifies at sigma2 <= %.1f, "
              "bit-parity intact.\n",
              kGateMaxOvershoot * kSigma2);
  return 0;
}
