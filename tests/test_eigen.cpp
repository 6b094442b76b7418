// Tests for src/eigen against dense oracles: power iterations (plain and
// generalized), pencil Lanczos, inverse Lanczos eigenpairs, Fiedler vector.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "eigen/fiedler.hpp"
#include "eigen/lanczos.hpp"
#include "eigen/operators.hpp"
#include "eigen/power_iteration.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/laplacian.hpp"
#include "la/dense_eigen.hpp"
#include "la/vector_ops.hpp"
#include "solver/cholesky.hpp"
#include "tree/kruskal.hpp"
#include "tree/tree_solver.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

TEST(Operators, CsrOpMatchesMultiply) {
  const Graph g = grid_2d(4, 4);
  const CsrMatrix l = laplacian(g);
  const LinOp op = make_csr_op(l);
  Rng rng(1);
  const Vec x = rng.normal_vector(l.rows());
  Vec y(static_cast<std::size_t>(l.rows()));
  op(x, y);
  EXPECT_LT(relative_error(y, l.multiply(x)), 1e-15);
}

TEST(Operators, SolverOpsAgree) {
  // Tree solver, Cholesky and PCG ops all apply L^+ — compare them.
  Rng rng(2);
  const Graph g = grid_2d(8, 8, WeightModel::uniform(0.5, 2.0), &rng);
  const CsrMatrix l = laplacian(g);
  Vec b = rng.normal_vector(l.rows());
  project_out_mean(b);

  const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
  const LinOp chol_op = make_cholesky_op(chol);

  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreePreconditioner tp(tree);
  Index pcg_iters = 0;
  const LinOp pcg_op = make_pcg_op(
      l, tp,
      {.max_iterations = 500, .rel_tolerance = 1e-12, .project_constants = true},
      &pcg_iters);

  const AmgHierarchy amg = AmgHierarchy::build(l);
  const LinOp amg_op = make_amg_op(amg, 1e-12, 300);

  Vec x_chol(b.size()), x_pcg(b.size()), x_amg(b.size());
  chol_op(b, x_chol);
  pcg_op(b, x_pcg);
  amg_op(b, x_amg);
  EXPECT_LT(relative_error(x_pcg, x_chol), 1e-8);
  EXPECT_LT(relative_error(x_amg, x_chol), 1e-8);
  EXPECT_GT(pcg_iters, 0);
}

TEST(PowerIteration, FindsLargestEigenvalueOfLaplacian) {
  Rng rng(3);
  const Graph g = erdos_renyi_connected(40, 150, rng,
                                        WeightModel::uniform(0.5, 2.0));
  const CsrMatrix l = laplacian(g);
  const PowerResult res = power_iteration(
      make_csr_op(l), l.rows(), rng,
      {.max_iterations = 2000, .rel_tolerance = 1e-12});

  const DenseEigen oracle = dense_symmetric_eigen(DenseMatrix::from_csr(l));
  const double lmax = oracle.eigenvalues.back();
  EXPECT_NEAR(res.eigenvalue, lmax, 1e-4 * lmax);
}

TEST(PowerIteration, InputValidation) {
  Rng rng(4);
  const LinOp noop = [](std::span<const double>, std::span<double>) {};
  EXPECT_THROW((void)power_iteration(noop, 0, rng), std::invalid_argument);
  EXPECT_THROW(
      (void)power_iteration(noop, 5, rng, {.max_iterations = 0}),
      std::invalid_argument);
}

TEST(GeneralizedPower, IdenticalGraphsGiveLambdaOne) {
  Rng rng(5);
  const Graph g = grid_2d(6, 6);
  const CsrMatrix l = laplacian(g);
  const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
  const PowerResult res = generalized_power_iteration(
      l, make_cholesky_op(chol), rng, {.max_iterations = 20});
  EXPECT_NEAR(res.eigenvalue, 1.0, 1e-6);
}

TEST(GeneralizedPower, MatchesDensePencilOracle) {
  Rng rng(6);
  const Graph g = erdos_renyi_connected(30, 100, rng,
                                        WeightModel::log_uniform(0.1, 10.0));
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver ts(tree);
  const CsrMatrix lg = laplacian(g);
  const CsrMatrix lp = laplacian(tree.as_graph());

  const PowerResult res = generalized_power_iteration(
      lg, make_tree_solver_op(ts), rng,
      {.max_iterations = 300, .rel_tolerance = 1e-12});

  const Vec oracle = dense_generalized_eigenvalues(
      DenseMatrix::from_csr(lg), DenseMatrix::from_csr(lp));
  const double lmax = oracle.back();
  EXPECT_NEAR(res.eigenvalue, lmax, 2e-3 * lmax);
  // All pencil eigenvalues >= 1 for subgraph preconditioners.
  EXPECT_GE(oracle.front(), 1.0 - 1e-8);
}

TEST(GeneralizedPower, TenIterationsGetWithinSixPercent) {
  // The paper's Table 1 claim: <= 10 generalized power iterations estimate
  // λ_max within a few percent.
  Rng rng(7);
  const Graph g = triangulated_grid(12, 12,
                                    WeightModel::log_uniform(0.1, 10.0), &rng);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver ts(tree);
  const CsrMatrix lg = laplacian(g);
  const CsrMatrix lp = laplacian(tree.as_graph());

  const PowerResult res = generalized_power_iteration(
      lg, make_tree_solver_op(ts), rng,
      {.max_iterations = 10, .rel_tolerance = 0.0});
  const Vec oracle = dense_generalized_eigenvalues(
      DenseMatrix::from_csr(lg), DenseMatrix::from_csr(lp));
  const double rel_err = std::abs(res.eigenvalue - oracle.back()) /
                         oracle.back();
  EXPECT_LT(rel_err, 0.06);
  // Power iteration under-estimates: λ̃ <= λ (Rayleigh quotient bound).
  EXPECT_LE(res.eigenvalue, oracle.back() * (1.0 + 1e-9));
}

// The two-pass generalized power iteration (L_G·h, then a separate
// hnᵀL_G·hn pass) that the fused one-pass form must reproduce bit for bit.
PowerResult reference_two_pass_power(const CsrMatrix& lg, const LinOp& solve_p,
                                     Rng& rng, const PowerOptions& opts) {
  const Index n = lg.rows();
  Vec h = random_probe_vector(n, rng);
  Vec gh(static_cast<std::size_t>(n));
  Vec hn(static_cast<std::size_t>(n));
  PowerResult result;
  double prev = 0.0;
  for (Index it = 1; it <= opts.max_iterations; ++it) {
    lg.multiply(h, gh);
    solve_p(gh, hn);
    project_out_mean(hn);
    const double denom = dot(hn, gh);
    const double numer = lg.quadratic(hn);
    result.iterations = it;
    if (denom <= 0.0) break;
    const double lambda = numer / denom;
    result.eigenvalue = lambda;
    const double nrm = norm2(hn);
    if (nrm == 0.0) break;
    h = hn;
    scale(h, 1.0 / nrm);
    if (it > 1 &&
        std::abs(lambda - prev) <= opts.rel_tolerance * std::abs(lambda)) {
      break;
    }
    prev = lambda;
  }
  result.vector = std::move(h);
  return result;
}

void expect_same_power_bits(const PowerResult& fused, const PowerResult& ref,
                            const std::string& what) {
  EXPECT_EQ(fused.iterations, ref.iterations) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fused.eigenvalue),
            std::bit_cast<std::uint64_t>(ref.eigenvalue))
      << what << ": " << fused.eigenvalue << " vs " << ref.eigenvalue;
  ASSERT_EQ(fused.vector.size(), ref.vector.size()) << what;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < ref.vector.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(fused.vector[i]) !=
        std::bit_cast<std::uint64_t>(ref.vector[i])) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u) << what;
}

TEST(GeneralizedPower, FusedPassIsBitIdenticalToTwoPassReference) {
  // Sizes above the row-parallel SpMV floor, so at threads > 1 both the
  // single multiply and the 2-column panel fan out on the pool.
  Rng gen(31);
  struct Case {
    std::string name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"er", erdos_renyi_connected(
                             700, 9000, gen,
                             WeightModel::log_uniform(0.1, 10.0))});
  cases.push_back(
      {"grid", grid_2d(80, 80, WeightModel::log_uniform(0.1, 10.0), &gen)});
  cases.push_back({"trigrid", triangulated_grid(
                                  60, 60, WeightModel::uniform(0.5, 2.0),
                                  &gen)});
  const std::vector<std::pair<std::string, PowerOptions>> stops = {
      {"converged", {.max_iterations = 60, .rel_tolerance = 1e-4}},
      {"limit", {.max_iterations = 10, .rel_tolerance = 0.0}},
      {"single", {.max_iterations = 1, .rel_tolerance = 0.0}},
  };
  for (const Case& c : cases) {
    const CsrMatrix lg = laplacian(c.g);
    const SpanningTree tree = max_weight_spanning_tree(c.g);
    const TreeSolver ts(tree);
    const SparseCholesky chol = SparseCholesky::factor_laplacian(
        laplacian(tree.as_graph()));
    const std::vector<std::pair<std::string, LinOp>> solvers = {
        {"tree", make_tree_solver_op(ts)},
        {"cholesky", make_cholesky_op(chol)},
    };
    for (const int threads : {1, 2, 4}) {
      set_default_threads(threads);
      for (const auto& [solver_name, solve_p] : solvers) {
        for (const auto& [stop_name, opts] : stops) {
          const std::string what = c.name + "/" + solver_name + "/" +
                                   stop_name + "/threads=" +
                                   std::to_string(threads);
          Rng rng_a(77);
          Rng rng_b(77);
          const PowerResult fused =
              generalized_power_iteration(lg, solve_p, rng_a, opts);
          const PowerResult ref =
              reference_two_pass_power(lg, solve_p, rng_b, opts);
          expect_same_power_bits(fused, ref, what);
          if (stop_name == "converged") {
            EXPECT_LT(fused.iterations, opts.max_iterations) << what;
          } else {
            EXPECT_EQ(fused.iterations, opts.max_iterations) << what;
          }
          EXPECT_EQ(rng_a(), rng_b()) << what;  // same draws consumed
        }
      }
    }
  }
  set_default_threads(0);
}

TEST(GeneralizedPower, FusedPassMatchesReferenceOnDegenerateExits) {
  Rng gen(32);
  const Graph g =
      erdos_renyi_connected(700, 9000, gen, WeightModel::uniform(0.5, 2.0));
  const CsrMatrix lg = laplacian(g);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver ts(tree);
  const LinOp exact = make_tree_solver_op(ts);

  // A solve that turns indefinite on its third call: denom <= 0 after two
  // good steps keeps the second step's estimate and iterate.
  const auto flips_on_third_call = [&exact](int* calls) -> LinOp {
    return [&exact, calls](std::span<const double> x, std::span<double> y) {
      exact(x, y);
      if (++*calls >= 3) scale(y, -1.0);
    };
  };
  // A zero solve: hn = 0, so denom = 0 on the first step.
  const LinOp zero = [](std::span<const double>, std::span<double> y) {
    fill(y, 0.0);
  };
  // A vanishing solve: hn ≈ 1e-200·L_P⁺x keeps denom > 0 but ‖hn‖²
  // underflows, so ‖hn‖ = 0 ends the iteration after the estimate.
  const auto vanishing_on_second_call = [&exact](int* calls) -> LinOp {
    return [&exact, calls](std::span<const double> x, std::span<double> y) {
      exact(x, y);
      if (++*calls >= 2) scale(y, 1e-200);
    };
  };

  for (const int threads : {1, 2, 4}) {
    set_default_threads(threads);
    const PowerOptions opts{.max_iterations = 10, .rel_tolerance = 0.0};
    const std::string t = "/threads=" + std::to_string(threads);
    {
      int calls_a = 0;
      int calls_b = 0;
      Rng rng_a(5);
      Rng rng_b(5);
      const PowerResult fused = generalized_power_iteration(
          lg, flips_on_third_call(&calls_a), rng_a, opts);
      const PowerResult ref = reference_two_pass_power(
          lg, flips_on_third_call(&calls_b), rng_b, opts);
      expect_same_power_bits(fused, ref, "denom<=0" + t);
      EXPECT_EQ(fused.iterations, 3);
      EXPECT_GT(fused.eigenvalue, 0.0);
    }
    {
      Rng rng_a(6);
      Rng rng_b(6);
      const PowerResult fused =
          generalized_power_iteration(lg, zero, rng_a, opts);
      const PowerResult ref = reference_two_pass_power(lg, zero, rng_b, opts);
      expect_same_power_bits(fused, ref, "zero solve" + t);
      EXPECT_EQ(fused.iterations, 1);
      EXPECT_EQ(fused.eigenvalue, 0.0);
    }
    {
      int calls_a = 0;
      int calls_b = 0;
      Rng rng_a(7);
      Rng rng_b(7);
      const PowerResult fused = generalized_power_iteration(
          lg, vanishing_on_second_call(&calls_a), rng_a, opts);
      const PowerResult ref = reference_two_pass_power(
          lg, vanishing_on_second_call(&calls_b), rng_b, opts);
      expect_same_power_bits(fused, ref, "zero iterate" + t);
      EXPECT_EQ(fused.iterations, 2);
    }
  }
  set_default_threads(0);
}

TEST(PencilLanczos, MatchesDenseOracleExtremes) {
  Rng rng(8);
  const Graph g = erdos_renyi_connected(40, 140, rng,
                                        WeightModel::uniform(0.2, 5.0));
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver ts(tree);
  const CsrMatrix lg = laplacian(g);
  const CsrMatrix lp = laplacian(tree.as_graph());

  const PencilEigenEstimate est = pencil_extreme_eigenvalues(
      lg, lp, make_tree_solver_op(ts), /*steps=*/39, rng);
  const Vec oracle = dense_generalized_eigenvalues(
      DenseMatrix::from_csr(lg), DenseMatrix::from_csr(lp));
  EXPECT_NEAR(est.lambda_max, oracle.back(), 1e-5 * oracle.back());
  // λ_min from forward Lanczos is an upper bound >= 1.
  EXPECT_GE(est.lambda_min, 1.0 - 1e-6);
}

TEST(PencilLanczos, ReverseGivesAccurateLambdaMin) {
  Rng rng(9);
  const Graph g = triangulated_grid(7, 7,
                                    WeightModel::log_uniform(0.2, 5.0), &rng);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const CsrMatrix lg = laplacian(g);
  const CsrMatrix lp = laplacian(tree.as_graph());
  const SparseCholesky chol_g = SparseCholesky::factor_laplacian(lg);

  const double lmin = pencil_lambda_min_reverse(
      lp, lg, make_cholesky_op(chol_g), /*steps=*/48, rng);
  const Vec oracle = dense_generalized_eigenvalues(
      DenseMatrix::from_csr(lg), DenseMatrix::from_csr(lp));
  EXPECT_NEAR(lmin, oracle.front(), 0.02 * oracle.front());
}

TEST(SmallestEigenpairs, MatchDenseOracle) {
  Rng rng(10);
  const Graph g = grid_2d(7, 8, WeightModel::uniform(0.5, 2.0), &rng);
  const CsrMatrix l = laplacian(g);
  const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
  const EigenPairs pairs = smallest_laplacian_eigenpairs(
      l.rows(), /*k=*/5, make_cholesky_op(chol), /*max_steps=*/55, rng);

  const DenseEigen oracle = dense_symmetric_eigen(DenseMatrix::from_csr(l));
  ASSERT_GE(pairs.values.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    // oracle.eigenvalues[0] ~ 0 is the trivial eigenvalue.
    const double expected = oracle.eigenvalues[i + 1];
    EXPECT_NEAR(pairs.values[i], expected, 1e-6 * expected) << "pair " << i;
    // Eigenvector residual ||L v - λ v||.
    const Vec lv = l.multiply(pairs.vectors[i]);
    Vec scaled = pairs.vectors[i];
    scale(scaled, pairs.values[i]);
    EXPECT_LT(norm2(subtract(lv, scaled)), 1e-5 * (1.0 + expected));
  }
  // Values ascending.
  for (std::size_t i = 0; i + 1 < pairs.values.size(); ++i) {
    EXPECT_LE(pairs.values[i], pairs.values[i + 1] * (1 + 1e-12));
  }
}

TEST(SmallestEigenpairs, InputValidation) {
  Rng rng(11);
  const LinOp noop = [](std::span<const double>, std::span<double>) {};
  EXPECT_THROW((void)smallest_laplacian_eigenpairs(1, 1, noop, 10, rng),
               std::invalid_argument);
  EXPECT_THROW((void)smallest_laplacian_eigenpairs(10, 0, noop, 10, rng),
               std::invalid_argument);
  EXPECT_THROW((void)smallest_laplacian_eigenpairs(10, 10, noop, 10, rng),
               std::invalid_argument);
}

TEST(Fiedler, MatchesDenseSecondEigenvector) {
  Rng rng(12);
  const Graph g = grid_2d(9, 5);
  const CsrMatrix l = laplacian(g);
  const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
  const FiedlerResult res = fiedler_vector(l, make_cholesky_op(chol), rng,
                                           {.max_iterations = 200,
                                            .rel_tolerance = 1e-14});
  const DenseEigen oracle = dense_symmetric_eigen(DenseMatrix::from_csr(l));
  const double lambda2 = oracle.eigenvalues[1];
  EXPECT_NEAR(res.eigenvalue, lambda2, 1e-6 * lambda2);

  // Vector matches up to sign: |<v, v_oracle>| ~ 1.
  Vec v_oracle(static_cast<std::size_t>(l.rows()));
  for (Index i = 0; i < l.rows(); ++i) {
    v_oracle[static_cast<std::size_t>(i)] = oracle.vectors(i, 1);
  }
  const double corr = std::abs(dot(res.vector, v_oracle));
  EXPECT_GT(corr, 0.999);
}

TEST(Fiedler, SeparatesDumbbell) {
  // The Fiedler vector of a dumbbell splits the two blobs by sign.
  Rng rng(13);
  const Graph g = dumbbell_graph(40, 1, 0.01, rng);
  const CsrMatrix l = laplacian(g);
  const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
  const FiedlerResult res = fiedler_vector(l, make_cholesky_op(chol), rng);

  int mismatch_left = 0, mismatch_right = 0;
  const double s0 = res.vector[0] >= 0 ? 1.0 : -1.0;
  for (Vertex v = 0; v < 40; ++v) {
    if (res.vector[static_cast<std::size_t>(v)] * s0 < 0) ++mismatch_left;
  }
  for (Vertex v = 40; v < 80; ++v) {
    if (res.vector[static_cast<std::size_t>(v)] * s0 > 0) ++mismatch_right;
  }
  EXPECT_EQ(mismatch_left, 0);
  EXPECT_EQ(mismatch_right, 0);
}

TEST(Fiedler, WorksWithPcgSolver) {
  Rng rng(14);
  // Non-square grid: λ₂ is simple, so the Fiedler vector is unique up to
  // sign (square grids have a doubly degenerate λ₂).
  const Graph g = grid_2d(10, 7);
  const CsrMatrix l = laplacian(g);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreePreconditioner tp(tree);
  const LinOp solve = make_pcg_op(
      l, tp,
      {.max_iterations = 400, .rel_tolerance = 1e-10, .project_constants = true});
  const FiedlerResult res = fiedler_vector(l, solve, rng);

  const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
  const FiedlerResult ref = fiedler_vector(l, make_cholesky_op(chol), rng);
  EXPECT_NEAR(res.eigenvalue, ref.eigenvalue, 1e-4 * ref.eigenvalue);
  EXPECT_GT(std::abs(dot(res.vector, ref.vector)), 0.999);
}

}  // namespace
}  // namespace ssp
