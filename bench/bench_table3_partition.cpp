// Reproduces paper Table 3: scalable spectral graph partitioning. For each
// graph the approximate Fiedler vector is computed by a direct solver
// (sparse Cholesky — CHOLMOD's role) and by PCG preconditioned with a
// σ² ≤ 200 sparsifier; the table reports solve time T_D/T_I, analytic
// memory M_D/M_I, the sign-cut balance |V+|/|V-|, and the sign
// disagreement Rel.Err between the two solutions.
//
// Expected shape (paper): T_I << T_D, M_I << M_D, Rel.Err <= ~4e-2,
// balance ~= 1.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "partition/spectral_bisection.hpp"
#include "util/rng.hpp"

namespace {

using namespace ssp;
using bench::dim;

struct Row {
  const char* name;
  Graph graph;
};

std::vector<Row> make_rows() {
  std::vector<Row> rows;
  rows.push_back({"G3_circuit*", bench::g3_circuit_proxy(dim(170, 1260))});
  rows.push_back({"thermal2*", bench::thermal2_proxy(dim(150, 1100))});
  rows.push_back({"ecology2*", bench::ecology2_proxy(dim(150, 1000))});
  rows.push_back({"tmt_sym*", bench::tmt_sym_proxy(dim(130, 840))});
  rows.push_back({"parabolic_fem*", bench::parabolic_fem_proxy(dim(85, 360))});
  // The paper's synthesized random-weight meshes (mesh_1M/4M/9M): scaled to
  // mesh_40k/90k by default.
  {
    Rng rng(401);
    rows.push_back({"mesh_A*", grid_2d(dim(200, 1000), dim(200, 1000),
                                       WeightModel::uniform(0.1, 1.0), &rng)});
  }
  {
    Rng rng(402);
    rows.push_back({"mesh_B*", grid_2d(dim(300, 2100), dim(300, 2100),
                                       WeightModel::uniform(0.1, 1.0), &rng)});
  }
  return rows;
}

void print_table3(bench::Report& report) {
  bench::print_banner(
      "Table 3 — spectral partitioning: direct Cholesky vs sigma^2<=200 "
      "sparsifier PCG\ncolumns: balance |V+|/|V-|, T_D (M_D), T_I (M_I), "
      "Rel.Err");
  std::printf("%-15s %9s %7s %9s %9s %9s %9s %9s\n", "graph", "|V|",
              "V+/V-", "T_D(s)", "M_D(MB)", "T_I(s)", "M_I(MB)", "Rel.Err");
  bench::print_rule(88);

  for (Row& row : make_rows()) {
    const Graph& g = row.graph;

    BisectionOptions direct;
    direct.solver = FiedlerSolverKind::kDirectCholesky;
    const BisectionResult rd = spectral_bisection(g, direct);

    BisectionOptions iter;
    iter.solver = FiedlerSolverKind::kSparsifierPcg;
    iter.sparsify.sigma2 = 200.0;
    const BisectionResult ri = spectral_bisection(g, iter);

    const double rel_err = sign_disagreement(rd.partition, ri.partition);
    auto mb = [](std::size_t b) {
      return static_cast<double>(b) / (1024.0 * 1024.0);
    };
    std::printf("%-15s %9d %7.2f %9.2f %9.1f %9.2f %9.1f %9.1e\n", row.name,
                g.num_vertices(), ri.metrics.balance, rd.solve_seconds,
                mb(rd.solver_memory_bytes), ri.solve_seconds,
                mb(ri.solver_memory_bytes), rel_err);
    report.section("cases").push(
        bench::Json::object()
            .set("graph", row.name)
            .set("vertices", g.num_vertices())
            .set("edges", static_cast<long long>(g.num_edges()))
            .set("balance", ri.metrics.balance)
            .set("direct_seconds", rd.solve_seconds)
            .set("direct_memory_mb", mb(rd.solver_memory_bytes))
            .set("sparsifier_seconds", ri.solve_seconds)
            .set("sparsifier_memory_mb", mb(ri.solver_memory_bytes))
            .set("sparsifier_edges",
                 static_cast<long long>(ri.sparsifier_edges))
            .set("rel_err", rel_err));
  }
  bench::print_rule(88);
  std::printf("* synthetic proxy (bench/bench_common.hpp). Expected shape: "
              "T_I < T_D, "
              "M_I < M_D, Rel.Err <= ~4e-2.\n");
}

void BM_DirectFiedler(benchmark::State& state) {
  const Graph g = bench::ecology2_proxy(static_cast<Vertex>(state.range(0)));
  BisectionOptions opts;
  opts.solver = FiedlerSolverKind::kDirectCholesky;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral_bisection(g, opts));
  }
}
BENCHMARK(BM_DirectFiedler)->Arg(64)->Arg(100)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_SparsifierFiedler(benchmark::State& state) {
  const Graph g = bench::ecology2_proxy(static_cast<Vertex>(state.range(0)));
  BisectionOptions opts;
  opts.solver = FiedlerSolverKind::kSparsifierPcg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral_bisection(g, opts));
  }
}
BENCHMARK(BM_SparsifierFiedler)->Arg(64)->Arg(100)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  ssp::bench::Report report("table3_partition");
  print_table3(report);
  report.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
