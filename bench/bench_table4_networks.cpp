// Reproduces paper Table 4: sparsification of complex networks at
// σ² ≈ 100. Columns: total sparsification time T_tot, edge reduction
// |E|/|Es|, collapse of the top pencil eigenvalue λ1/λ̃1 (tree backbone vs
// final sparsifier), and the time to compute the first 10 Laplacian
// eigenvectors on the original vs sparsified graph (T_eig^o vs T_eig^s).
//
// Expected shape (paper): reductions 3–36x, λ1/λ̃1 ratios in the
// hundreds-to-tens-of-thousands, and a large eigensolver speedup.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "core/sparsifier.hpp"
#include "eigen/lanczos.hpp"
#include "eigen/operators.hpp"
#include "graph/laplacian.hpp"
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
  rows.push_back({"fe_tooth*", bench::fe_solid_proxy(dim(22, 43), 501)});
  rows.push_back({"appu*", bench::appu_proxy(dim(4000, 14000), 502)});
  rows.push_back({"coAuthorsDBLP*", bench::dblp_proxy(dim(40000, 300000))});
  rows.push_back({"auto*", bench::fe_solid_proxy(dim(28, 77), 503)});
  rows.push_back({"RCV-80NN*", bench::rcv_proxy(dim(4000, 12000))});
  return rows;
}

double eigs_seconds(const Graph& g, Index k, Rng& rng) {
  const CsrMatrix l = laplacian(g);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreePreconditioner precond(tree);
  const LinOp solve = make_pcg_op(
      l, precond,
      {.max_iterations = 3000, .rel_tolerance = 1e-6,
       .project_constants = true});
  const WallTimer t;
  benchmark::DoNotOptimize(
      smallest_laplacian_eigenpairs(l.rows(), k, solve, 3 * k + 15, rng));
  return t.seconds();
}

void print_table4(bench::Report& report) {
  bench::print_banner(
      "Table 4 — complex network sparsification at sigma^2 ~ 100\n"
      "columns: T_tot, |E|/|Es|, lambda1/~lambda1, T_eig original "
      "(sparsified)");
  std::printf("%-15s %9s %10s %7s %9s %11s %12s\n", "graph", "|V|", "|E|",
              "T_tot", "|E|/|Es|", "l1/~l1", "Teig o(s)");
  bench::print_rule(84);

  for (Row& row : make_rows()) {
    const Graph& g = row.graph;
    SparsifyOptions opts;
    opts.sigma2 = 100.0;
    const SparsifyResult res = sparsify(g, opts);
    const Graph p = res.extract(g);
    const double reduction = static_cast<double>(g.num_edges()) /
                             static_cast<double>(p.num_edges());
    const double lambda1_tree =
        res.rounds.empty() ? res.lambda_max : res.rounds.front().lambda_max;
    const double collapse = lambda1_tree / res.lambda_max;

    Rng rng(19);
    const double t_orig = eigs_seconds(g, 10, rng);
    const double t_spars = eigs_seconds(p, 10, rng);

    std::printf("%-15s %9d %10lld %6.1fs %8.1fx %10.0fx %8.2fs (%.2fs)\n",
                row.name, g.num_vertices(),
                static_cast<long long>(g.num_edges()), res.total_seconds,
                reduction, collapse, t_orig, t_spars);
    report.section("cases").push(
        bench::Json::object()
            .set("graph", row.name)
            .set("vertices", g.num_vertices())
            .set("edges", static_cast<long long>(g.num_edges()))
            .set("sparsifier_edges", static_cast<long long>(p.num_edges()))
            .set("sparsify_seconds", res.total_seconds)
            .set("edge_reduction", reduction)
            .set("lambda1_collapse", collapse)
            .set("eig_seconds_original", t_orig)
            .set("eig_seconds_sparsified", t_spars));
  }
  bench::print_rule(84);
  std::printf("* synthetic proxy (bench/bench_common.hpp). Expected shape: "
              "reductions "
              ">= 3x, large l1 collapse, eigensolver speedup.\n");
}

void BM_SparsifyNetwork(benchmark::State& state) {
  const Graph g = bench::dblp_proxy(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparsify(g, {.sigma2 = 100.0}));
  }
}
BENCHMARK(BM_SparsifyNetwork)->Arg(10000)->Arg(20000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  ssp::bench::Report report("table4_networks");
  print_table4(report);
  report.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
