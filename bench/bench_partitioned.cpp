// Partition-parallel sparsification (src/scale/) vs the whole-graph
// engine: quality (condition-number / eigenvalue error against the
// whole-graph sparsifier, measured with one shared estimator) and
// wall-clock across k ∈ {1, 2, 4, 8}, plus a cut-policy sweep at k = 4.
// k = 1 is the whole-graph engine bit for bit, so its row doubles as the
// baseline. Emits BENCH_partitioned.json for the perf trajectory.

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/options_io.hpp"
#include "core/sparsifier.hpp"
#include "graph/generators/community.hpp"
#include "scale/partitioned_sparsifier.hpp"
#include "scale/quality.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace {

using namespace ssp;
using bench::dim;
using bench::Json;

constexpr double kSigma2 = 100.0;

PartitionedOptions make_options(Index k, CutPolicy policy) {
  PartitionedOptions opts;
  opts.partitions = k;
  opts.cut_policy = policy;
  opts.block.sigma2 = kSigma2;
  return opts;
}

/// One partitioned run: prints a table row and appends the JSON record.
/// `whole` is the k = 1 quality every row is compared against.
void run_case(const Graph& g, Index k, CutPolicy policy,
              const SparsifierQuality& whole, Json& rows) {
  PartitionedResult res;
  const bench::StageSeconds stages = bench::StageSeconds::measure(
      [&] { res = partitioned_sparsify(g, make_options(k, policy)); });
  const SparsifierQuality q = estimate_sparsifier_quality(g, res.extract(g));
  const double sigma2_err = std::abs(q.sigma2 - whole.sigma2) / whole.sigma2;
  const double lmax_err =
      std::abs(q.lambda_max - whole.lambda_max) / whole.lambda_max;

  std::printf("%4lld  %-8s %8lld %7lld/%-7lld %8.2f %9.4f %9.4f %8.3f\n",
              static_cast<long long>(k), to_string(policy),
              static_cast<long long>(res.num_edges()),
              static_cast<long long>(res.cut_edges_kept),
              static_cast<long long>(res.cut_edges_total), q.sigma2,
              sigma2_err, lmax_err, res.total_seconds);

  Json stage = Json::object();
  for (const char* name : {"partition", "extract", "block-sparsify",
                           "cut-sparsify", "stitch", "quality"}) {
    stage.set(name, stages[std::string("scale.stage.") + name]);
  }
  rows.push(Json::object()
                .set("k", static_cast<long long>(k))
                .set("cut_policy", to_string(policy))
                .set("blocks", static_cast<long long>(res.blocks))
                .set("edges", static_cast<long long>(res.num_edges()))
                .set("cut_edges_total",
                     static_cast<long long>(res.cut_edges_total))
                .set("cut_edges_kept",
                     static_cast<long long>(res.cut_edges_kept))
                .set("sigma2", q.sigma2)
                .set("lambda_min", q.lambda_min)
                .set("lambda_max", q.lambda_max)
                .set("sigma2_rel_err_vs_whole", sigma2_err)
                .set("lambda_max_rel_err_vs_whole", lmax_err)
                .set("stage_seconds", std::move(stage))
                .set("seconds", res.total_seconds));
}

void run_graph(const char* name, const Graph& g, bench::Report& report) {
  bench::print_banner(
      ("partitioned sparsification — " + std::string(name)).c_str());
  std::printf("|V| = %d  |E| = %lld  block sigma2 target %.0f\n",
              g.num_vertices(), static_cast<long long>(g.num_edges()),
              kSigma2);
  std::printf("%4s  %-8s %8s %15s %8s %9s %9s %8s\n", "k", "policy",
              "edges", "cut kept/total", "sigma2", "s2 err", "lmax err",
              "seconds");
  bench::print_rule(78);

  // Whole-graph baseline = the k = 1 row (bit-for-bit the same engine);
  // measure its quality once with the shared estimator.
  const PartitionedResult base =
      partitioned_sparsify(g, make_options(1, CutPolicy::kFilter));
  const SparsifierQuality whole = estimate_sparsifier_quality(g, base.extract(g));

  Json& entry = report.section("cases").push(
      Json::object()
          .set("graph", name)
          .set("vertices", g.num_vertices())
          .set("edges", static_cast<long long>(g.num_edges()))
          .set("sigma2_target", kSigma2)
          .set("whole_graph_sigma2", whole.sigma2));
  Json& rows = entry["runs"];
  for (const Index k : {1, 2, 4, 8}) {
    run_case(g, k, CutPolicy::kFilter, whole, rows);
  }
  for (const CutPolicy policy : {CutPolicy::kKeepAll, CutPolicy::kQuotient}) {
    run_case(g, 4, policy, whole, rows);
  }
}

}  // namespace

int main() {
  set_default_threads(std::max(4, hardware_threads()));
  bench::Report report("partitioned");

  run_graph("g3_circuit_proxy", bench::g3_circuit_proxy(dim(40, 384)),
            report);
  {
    Rng rng(21);
    run_graph("planted_partition",
              planted_partition(dim(800, 60000), 8, 0.02, 0.002, rng),
              report);
  }

  bench::print_rule(78);
  std::printf("k = 1 reproduces the whole-graph engine bit for bit; larger "
              "k trades a\nbounded sigma2 increase (cut edges filtered "
              "separately) for near-linear\nblock-parallel scaling.\n");
  report.write();
  return 0;
}
