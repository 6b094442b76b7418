// Reproduces paper Table 1: accuracy of the extreme generalized-eigenvalue
// estimators — λ̃_max from <= 10 generalized power iterations (§3.6.1) and
// λ̃_min from the node-coloring bound (§3.6.2) — against "exact" values from
// long pencil Lanczos runs (standing in for MATLAB eigs).
//
// Paper test cases -> proxies: fe_rotor/brack2 -> 3-D FE grids,
// pdb1HYS/raefsky3 -> kNN protein-like clouds, bcsstk36 -> stiffened
// triangulated shell mesh.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/eigen_estimate.hpp"
#include "eigen/lanczos.hpp"
#include "eigen/operators.hpp"
#include "graph/laplacian.hpp"
#include "solver/preconditioner.hpp"
#include "tree/kruskal.hpp"
#include "tree/tree_solver.hpp"

namespace {

using namespace ssp;
using bench::dim;

struct Case {
  const char* name;
  Graph graph;
};

std::vector<Case> make_cases() {
  // Fixed moderate sizes: this is an accuracy table (the reference values
  // come from exact-factorization Lanczos, which wants n in the few
  // thousands). Boundary-free tori stand in for the FE solids so that the
  // degree-ratio bound is non-trivial, as on the paper's matrices.
  std::vector<Case> cases;
  {
    Rng rng(201);
    cases.push_back({"fe_rotor*",
                     torus_3d(13, 13, 13,
                              WeightModel::log_uniform(0.2, 5.0), &rng)});
  }
  {
    // pdb1HYS (protein structure): mildly clustered 3-D cloud, 10-NN.
    Rng rng(202);
    const PointCloud pc = gaussian_mixture_points(2500, 3, 5, 0.12, rng);
    cases.push_back({"pdb1HYS*",
                     knn_graph(pc, 10, KnnWeight::kInverseDistance)});
  }
  {
    Rng rng(203);
    cases.push_back({"bcsstk36*",
                     torus_2d(48, 48, WeightModel::log_uniform(0.05, 20.0),
                              &rng)});
  }
  {
    Rng rng(204);
    cases.push_back({"brack2*",
                     torus_3d(12, 12, 12,
                              WeightModel::uniform(0.3, 3.0), &rng)});
  }
  {
    // raefsky3 (fluid-structure FE): uniform cloud -> spread-out stretch
    // spectrum, the regime where [21]'s eigenvalue-separation result (and
    // hence fast power-iteration convergence) applies.
    Rng rng(205);
    const PointCloud pc = uniform_points(3000, 3, rng);
    cases.push_back({"raefsky3*",
                     knn_graph(pc, 8, KnnWeight::kInverseDistance)});
  }
  return cases;
}

void print_table1(bench::Report& report) {
  bench::print_banner(
      "Table 1 — extreme eigenvalue estimation (estimate vs Lanczos exact)\n"
      "columns: lambda_min  ~lambda_min  err%%   lambda_max  ~lambda_max  err%%");
  std::printf("%-12s %10s %10s %6s %12s %12s %6s\n", "case", "l_min",
              "~l_min", "err%", "l_max", "~l_max", "err%");
  bench::print_rule(78);

  Rng rng(42);
  for (Case& c : make_cases()) {
    const Graph& g = c.graph;
    const SpanningTree tree = max_weight_spanning_tree(g);
    const TreeSolver solver(tree);
    const CsrMatrix lg = laplacian(g);
    const CsrMatrix lp = laplacian(tree.as_graph());
    const LinOp solve_p = make_tree_solver_op(solver);

    // --- Estimates (the paper's cheap methods). ---
    std::vector<char> in_p(static_cast<std::size_t>(g.num_edges()), 0);
    for (EdgeId e : tree.tree_edge_ids()) {
      in_p[static_cast<std::size_t>(e)] = 1;
    }
    const double lmin_est = estimate_lambda_min_node_coloring(g, in_p);
    const double lmax_est =
        estimate_lambda_max_power(lg, solve_p, rng, /*iterations=*/10);

    // --- "Exact" references: long Lanczos runs with an exact L_G solver
    // (sparse Cholesky), so the reverse-pencil spectrum is not polluted by
    // inner solver noise. ---
    const PencilEigenEstimate fwd =
        pencil_extreme_eigenvalues(lg, lp, solve_p, /*steps=*/60, rng);
    const SparseCholesky chol_g = SparseCholesky::factor_laplacian(lg);
    const LinOp solve_g = make_cholesky_op(chol_g);
    const double lmin_exact =
        pencil_lambda_min_reverse(lp, lg, solve_g, /*steps=*/50, rng);
    const double lmax_exact = fwd.lambda_max;

    const double emin = 100.0 * std::abs(lmin_est - lmin_exact) / lmin_exact;
    const double emax = 100.0 * std::abs(lmax_est - lmax_exact) / lmax_exact;
    std::printf("%-12s %10.3f %10.3f %5.1f%% %12.1f %12.1f %5.1f%%\n",
                c.name, lmin_exact, lmin_est, emin, lmax_exact, lmax_est,
                emax);
    report.section("cases").push(
        bench::Json::object()
            .set("graph", c.name)
            .set("vertices", g.num_vertices())
            .set("edges", static_cast<long long>(g.num_edges()))
            .set("lambda_min_exact", lmin_exact)
            .set("lambda_min_estimate", lmin_est)
            .set("lambda_min_err_pct", emin)
            .set("lambda_max_exact", lmax_exact)
            .set("lambda_max_estimate", lmax_est)
            .set("lambda_max_err_pct", emax));
  }
  bench::print_rule(78);
  std::printf("* synthetic proxy of the SuiteSparse matrix "
              "(bench/bench_common.hpp)\n");
}

// Micro-benchmarks: cost of the two estimators.
void BM_LambdaMinNodeColoring(benchmark::State& state) {
  const Graph g = bench::thermal2_proxy(static_cast<Vertex>(state.range(0)));
  const SpanningTree tree = max_weight_spanning_tree(g);
  std::vector<char> in_p(static_cast<std::size_t>(g.num_edges()), 0);
  for (EdgeId e : tree.tree_edge_ids()) in_p[static_cast<std::size_t>(e)] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_lambda_min_node_coloring(g, in_p));
  }
  state.SetComplexityN(g.num_vertices());
}
BENCHMARK(BM_LambdaMinNodeColoring)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_LambdaMaxPowerIterations(benchmark::State& state) {
  const Graph g = bench::thermal2_proxy(static_cast<Vertex>(state.range(0)));
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const CsrMatrix lg = laplacian(g);
  const LinOp solve_p = make_tree_solver_op(solver);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_lambda_max_power(lg, solve_p, rng, 10));
  }
}
BENCHMARK(BM_LambdaMaxPowerIterations)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ssp::bench::Report report("table1_eigenvalues");
  print_table1(report);
  report.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
