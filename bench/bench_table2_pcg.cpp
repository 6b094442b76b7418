// Reproduces paper Table 2: the iterative SDD solver. For each mesh proxy
// and σ² ∈ {50, 200}: sparsifier density |E_σ|/|V|, PCG iterations N_σ to
// ||Ax−b|| < 1e-3||b||, and sparsification time T_σ.
//
// Expected shape (paper): N_50 ≈ 18–21 < N_200 ≈ 36–40, while
// |E_50|/|V| > |E_200|/|V| and T_50 > T_200 — the similarity/density/time
// trade-off the similarity-aware filter exposes.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_preconditioner.hpp"
#include "graph/laplacian.hpp"
#include "la/vector_ops.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "tree/kruskal.hpp"
#include "util/timer.hpp"

namespace {

using namespace ssp;
using bench::dim;

struct Row {
  const char* name;
  Graph graph;
};

std::vector<Row> make_rows() {
  std::vector<Row> rows;
  rows.push_back({"G3_circuit*", bench::g3_circuit_proxy(dim(190, 1260))});
  rows.push_back({"thermal2*", bench::thermal2_proxy(dim(170, 1100))});
  rows.push_back({"ecology2*", bench::ecology2_proxy(dim(140, 1000))});
  rows.push_back({"tmt_sym*", bench::tmt_sym_proxy(dim(150, 840))});
  rows.push_back({"parabolic_fem*", bench::parabolic_fem_proxy(dim(95, 360))});
  return rows;
}

struct SigmaCell {
  double density = 0.0;
  Index iterations = 0;
  double sparsify_seconds = 0.0;
};

SigmaCell run_cell(const Graph& g, double sigma2, std::span<const double> b) {
  SigmaCell cell;
  SparsifyOptions opts;
  opts.sigma2 = sigma2;
  const WallTimer t;
  const SparsifyResult res = sparsify(g, opts);
  cell.sparsify_seconds = t.seconds();
  cell.density = static_cast<double>(res.num_edges()) /
                 static_cast<double>(g.num_vertices());

  const Graph p = res.extract(g);
  const CsrMatrix lg = laplacian(g);
  const SparsifierPreconditioner precond(p);
  Vec x(b.size(), 0.0);
  const PcgResult r = pcg_solve(lg, b, x, precond,
                                {.max_iterations = 2000,
                                 .rel_tolerance = 1e-3,
                                 .project_constants = true});
  cell.iterations = r.iterations;
  return cell;
}

void print_table2(bench::Report& report) {
  bench::print_banner(
      "Table 2 — iterative SDD solver with sigma^2 = 50 / 200 sparsifier "
      "preconditioners\ncolumns: |E50|/|V|  N50  T50   |E200|/|V|  N200  T200");
  std::printf("%-15s %9s %9s %5s %6s %10s %6s %7s\n", "graph", "|V|", "|E|",
              "E50/V", "N50", "T50(s)", "E200/V", "N200");
  bench::print_rule(78);

  for (Row& row : make_rows()) {
    const Graph& g = row.graph;
    Rng rng(17);
    Vec b = rng.normal_vector(g.num_vertices());
    project_out_mean(b);
    const SigmaCell c50 = run_cell(g, 50.0, b);
    const SigmaCell c200 = run_cell(g, 200.0, b);
    std::printf(
        "%-15s %9d %9lld %5.2f %6lld %9.2fs %6.2f %7lld  (T200 %.2fs)\n",
        row.name, g.num_vertices(), static_cast<long long>(g.num_edges()),
        c50.density, static_cast<long long>(c50.iterations),
        c50.sparsify_seconds, c200.density,
        static_cast<long long>(c200.iterations), c200.sparsify_seconds);
    report.section("cases").push(
        bench::Json::object()
            .set("graph", row.name)
            .set("vertices", g.num_vertices())
            .set("edges", static_cast<long long>(g.num_edges()))
            .set("density_50", c50.density)
            .set("iterations_50", static_cast<long long>(c50.iterations))
            .set("sparsify_seconds_50", c50.sparsify_seconds)
            .set("density_200", c200.density)
            .set("iterations_200", static_cast<long long>(c200.iterations))
            .set("sparsify_seconds_200", c200.sparsify_seconds));
  }
  bench::print_rule(78);
  std::printf("* synthetic proxy (bench/bench_common.hpp). Expected shape: "
              "N50 < N200, "
              "E50/V > E200/V, T50 > T200.\n");
}

void BM_PcgTreePreconditioned(benchmark::State& state) {
  const Graph g = bench::g3_circuit_proxy(static_cast<Vertex>(state.range(0)));
  const CsrMatrix lg = laplacian(g);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreePreconditioner tp(tree);
  Rng rng(3);
  Vec b = rng.normal_vector(g.num_vertices());
  project_out_mean(b);
  for (auto _ : state) {
    Vec x(b.size(), 0.0);
    benchmark::DoNotOptimize(
        pcg_solve(lg, b, x, tp,
                  {.max_iterations = 4000,
                   .rel_tolerance = 1e-3,
                   .project_constants = true}));
  }
}
BENCHMARK(BM_PcgTreePreconditioned)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ssp::bench::Report report("table2_pcg");
  print_table2(report);
  report.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
