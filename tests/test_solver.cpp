// Tests for src/solver: CG/PCG correctness and preconditioner effects,
// fill-reducing orderings, sparse Cholesky vs dense oracle (SPD + grounded
// Laplacian), elimination tree, and AMG convergence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <span>
#include <thread>
#include <unordered_set>

#include "graph/generators/airfoil.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/knn.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/points.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/laplacian.hpp"
#include "la/dense_matrix.hpp"
#include "la/vector_ops.hpp"
#include "solver/amg.hpp"
#include "solver/cholesky.hpp"
#include "solver/ordering.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "tree/kruskal.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

/// SPD test matrix: Laplacian + alpha*I.
CsrMatrix spd_matrix(const Graph& g, double alpha) {
  const CsrMatrix l = laplacian(g);
  std::vector<Triplet> ts;
  for (Index r = 0; r < l.rows(); ++r) {
    const auto cols = l.row_cols(r);
    const auto vals = l.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      ts.push_back({r, cols[k], vals[k]});
    }
    ts.push_back({r, r, alpha});
  }
  return CsrMatrix::from_triplets(l.rows(), l.cols(), ts);
}

TEST(Pcg, SolvesSpdSystem) {
  Rng rng(1);
  const Graph g = grid_2d(10, 10, WeightModel::uniform(0.5, 2.0), &rng);
  const CsrMatrix a = spd_matrix(g, 0.5);
  const Vec x_true = rng.normal_vector(a.rows());
  const Vec b = a.multiply(x_true);
  Vec x(static_cast<std::size_t>(a.rows()), 0.0);
  const PcgResult res = cg_solve(a, b, x, {.max_iterations = 500,
                                           .rel_tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(relative_error(x, x_true), 1e-7);
  EXPECT_GT(res.iterations, 0);
}

TEST(Pcg, SolvesLaplacianWithProjection) {
  Rng rng(2);
  const Graph g = grid_2d(12, 12);
  const CsrMatrix l = laplacian(g);
  Vec x_true = rng.normal_vector(l.rows());
  project_out_mean(x_true);
  const Vec b = l.multiply(x_true);
  Vec x(static_cast<std::size_t>(l.rows()), 0.0);
  const PcgResult res =
      cg_solve(l, b, x, {.max_iterations = 1000,
                         .rel_tolerance = 1e-10,
                         .project_constants = true});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(relative_error(x, x_true), 1e-6);
}

TEST(Pcg, JacobiHelpsOnBadlyScaledSystem) {
  Rng rng(3);
  const Graph g =
      grid_2d(15, 15, WeightModel::log_uniform(1e-4, 1e4), &rng);
  const CsrMatrix a = spd_matrix(g, 1e-3);
  const Vec b = rng.normal_vector(a.rows());
  const PcgOptions opts = {.max_iterations = 3000, .rel_tolerance = 1e-8};

  Vec x1(static_cast<std::size_t>(a.rows()), 0.0);
  const PcgResult plain = cg_solve(a, b, x1, opts);
  Vec x2(static_cast<std::size_t>(a.rows()), 0.0);
  const JacobiPreconditioner jac(a);
  const PcgResult prec = pcg_solve(a, b, x2, jac, opts);
  EXPECT_TRUE(prec.converged);
  EXPECT_LE(prec.iterations, plain.iterations);
}

TEST(Pcg, TreePreconditionerBeatsPlainCgOnLaplacian) {
  Rng rng(4);
  const Graph g =
      grid_2d(30, 30, WeightModel::log_uniform(0.01, 100.0), &rng);
  const CsrMatrix l = laplacian(g);
  Vec b = rng.normal_vector(l.rows());
  project_out_mean(b);
  const PcgOptions opts = {.max_iterations = 4000,
                           .rel_tolerance = 1e-8,
                           .project_constants = true};

  Vec x1(static_cast<std::size_t>(l.rows()), 0.0);
  const PcgResult plain = cg_solve(l, b, x1, opts);

  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreePreconditioner tp(tree);
  Vec x2(static_cast<std::size_t>(l.rows()), 0.0);
  const PcgResult prec = pcg_solve(l, b, x2, tp, opts);

  EXPECT_TRUE(prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations);
  EXPECT_LT(relative_error(x2, x1), 1e-5);
}

TEST(Pcg, ZeroRhsReturnsZero) {
  const Graph g = grid_2d(4, 4);
  const CsrMatrix a = spd_matrix(g, 1.0);
  const Vec b(static_cast<std::size_t>(a.rows()), 0.0);
  Vec x(static_cast<std::size_t>(a.rows()), 3.0);
  const PcgResult res = cg_solve(a, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Pcg, BreakdownIsFlaggedWithTrueResidualOfReturnedIterate) {
  // Regression: a pᵀAp ≤ 0 breakdown used to return silently with the
  // residual recorded *before* the breakdown. It must now set
  // `breakdown` and report ||b − A x|| of the iterate actually returned.
  const std::vector<Triplet> ts = {{0, 0, 1.0}, {1, 1, -1.0}};
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, ts);  // indefinite
  {
    // b = (1, 2): p₀ᵀA p₀ = 1 − 4 < 0 — immediate breakdown, x stays 0,
    // so the true relative residual is exactly 1.
    const Vec b = {1.0, 2.0};
    Vec x(2, 0.0);
    const PcgResult res =
        cg_solve(a, b, x, {.max_iterations = 10, .rel_tolerance = 1e-12});
    EXPECT_TRUE(res.breakdown);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 0);
    EXPECT_DOUBLE_EQ(res.relative_residual, 1.0);
    for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
  }
  {
    // b = (2, 1): the first iteration succeeds (p₀ᵀA p₀ = 3), the second
    // direction has p₁ᵀA p₁ < 0. The reported residual must describe the
    // returned x — here 4/3, checked against an independent recompute.
    const Vec b = {2.0, 1.0};
    Vec x(2, 0.0);
    const PcgResult res =
        cg_solve(a, b, x, {.max_iterations = 10, .rel_tolerance = 1e-12});
    EXPECT_TRUE(res.breakdown);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 1);
    const Vec ax = a.multiply(x);
    const Vec r = subtract(b, ax);
    EXPECT_NEAR(res.relative_residual, norm2(r) / norm2(b), 1e-14);
    EXPECT_NEAR(res.relative_residual, 4.0 / 3.0, 1e-12);
  }
  // Healthy SPD solves never set the flag.
  const Graph g = grid_2d(6, 6);
  const CsrMatrix spd = spd_matrix(g, 1.0);
  const Vec b(static_cast<std::size_t>(spd.rows()), 1.0);
  Vec x(static_cast<std::size_t>(spd.rows()), 0.0);
  const PcgResult ok = cg_solve(spd, b, x, {.max_iterations = 500});
  EXPECT_TRUE(ok.converged);
  EXPECT_FALSE(ok.breakdown);
}

TEST(Pcg, InputValidation) {
  const Graph g = grid_2d(3, 3);
  const CsrMatrix a = spd_matrix(g, 1.0);
  Vec b(static_cast<std::size_t>(a.rows()), 1.0);
  Vec x(static_cast<std::size_t>(a.rows()), 0.0);
  Vec bad(3, 0.0);
  EXPECT_THROW((void)cg_solve(a, bad, x), std::invalid_argument);
  EXPECT_THROW((void)cg_solve(a, b, bad), std::invalid_argument);
  EXPECT_THROW((void)cg_solve(a, b, x, {.rel_tolerance = 0.0}),
               std::invalid_argument);
}

TEST(Ordering, RcmIsPermutationAndReducesBandwidth) {
  Rng rng(5);
  const Graph g = grid_2d(20, 20);
  const CsrMatrix l = laplacian(g);
  const auto order = rcm_ordering(l);
  ASSERT_EQ(static_cast<Index>(order.size()), l.rows());
  std::vector<Vertex> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (Index i = 0; i < l.rows(); ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], static_cast<Vertex>(i));
  }
  // Bandwidth with RCM should be at most the natural-order bandwidth for a
  // row-major grid (ny = 20).
  const CsrMatrix lp = permute_symmetric(l, order);
  auto bandwidth = [](const CsrMatrix& m) {
    Index bw = 0;
    for (Index r = 0; r < m.rows(); ++r) {
      for (Vertex c : m.row_cols(r)) {
        bw = std::max(bw, std::abs(static_cast<Index>(c) - r));
      }
    }
    return bw;
  };
  EXPECT_LE(bandwidth(lp), bandwidth(l));
}

/// Reference minimum degree: the explicit fill-graph greedy (one hash set
/// per vertex, elimination cliques formed eagerly, lazy (degree, id) heap).
/// Quadratic and allocation-heavy, but obviously correct: the fill the
/// approximate-minimum-degree ordering is held to.
std::vector<Vertex> reference_min_degree_ordering(const CsrMatrix& a) {
  const Index n = a.rows();
  std::vector<std::unordered_set<Vertex>> adj(static_cast<std::size_t>(n));
  for (Index r = 0; r < n; ++r) {
    for (Vertex c : a.row_cols(r)) {
      if (c != r) adj[static_cast<std::size_t>(r)].insert(c);
    }
  }
  using HeapItem = std::pair<Index, Vertex>;  // (degree, vertex)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (Vertex v = 0; v < n; ++v) {
    heap.emplace(static_cast<Index>(adj[static_cast<std::size_t>(v)].size()),
                 v);
  }
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> order;
  while (!heap.empty()) {
    const auto [deg, v] = heap.top();
    heap.pop();
    auto& av = adj[static_cast<std::size_t>(v)];
    if (eliminated[static_cast<std::size_t>(v)] != 0) continue;
    if (deg != static_cast<Index>(av.size())) {
      heap.emplace(static_cast<Index>(av.size()), v);  // stale entry
      continue;
    }
    eliminated[static_cast<std::size_t>(v)] = 1;
    order.push_back(v);
    const std::vector<Vertex> nbrs(av.begin(), av.end());
    for (Vertex u : nbrs) adj[static_cast<std::size_t>(u)].erase(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (adj[static_cast<std::size_t>(nbrs[i])].insert(nbrs[j]).second) {
          adj[static_cast<std::size_t>(nbrs[j])].insert(nbrs[i]);
        }
      }
    }
    for (Vertex u : nbrs) {
      heap.emplace(static_cast<Index>(adj[static_cast<std::size_t>(u)].size()),
                   u);
    }
    av.clear();
  }
  return order;
}

TEST(Ordering, MinDegreeFillMatchesReferenceAcrossFamilies) {
  // AMD's degrees are upper bounds, so its permutation is not the exact
  // greedy's; the contract is fill within 5% of the exact greedy's, a
  // workspace-independent result, and an exact in-ordering nnz(L) count.
  std::vector<std::pair<const char*, Graph>> graphs;
  {
    Rng rng(71);
    graphs.emplace_back("lattice", grid_2d(30, 30,
                                           WeightModel::log_uniform(0.2, 5.0),
                                           &rng));
  }
  {
    Rng rng(72);
    graphs.emplace_back("rmat", rmat_graph(9, 4, rng));
  }
  {
    Rng rng(73);
    graphs.emplace_back("community", planted_partition(400, 4, 0.05, 0.005,
                                                       rng));
  }
  {
    Rng rng(74);
    const PointCloud pc = gaussian_mixture_points(400, 3, 5, 0.05, rng);
    graphs.emplace_back("knn", knn_graph(pc, 5, KnnWeight::kInverseDistance));
  }
  graphs.emplace_back("airfoil", joukowski_airfoil_mesh(12, 40).graph);
  graphs.emplace_back("star", star_graph(300));
  {
    Rng rng(75);
    graphs.emplace_back("ba", barabasi_albert(1500, 4, rng));
  }
  graphs.emplace_back("grid3d", grid_3d(12, 12, 12));
  {
    Rng rng(76);
    graphs.emplace_back("er", erdos_renyi_connected(1000, 5000, rng));
  }
  const auto nnz_under = [](const CsrMatrix& a,
                            std::span<const Vertex> order) {
    return SparseCholesky::factor(
               permute_symmetric(a, order),
               {.ordering = CholeskyOptions::Ordering::kNatural})
        .factor_nnz();
  };
  MinDegreeWorkspace ws;  // reused across graphs of different sizes
  std::vector<Vertex> order;
  for (const auto& [name, g] : graphs) {
    const CsrMatrix a = spd_matrix(g, 1.0);  // Laplacian pattern, SPD
    const std::vector<Vertex> fresh = min_degree_ordering(a);
    std::vector<Vertex> sorted = fresh;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Vertex> identity(sorted.size());
    std::iota(identity.begin(), identity.end(), Vertex{0});
    ASSERT_EQ(sorted, identity) << name;

    const Index lnz = nnz_under(a, fresh);
    const Index reference_lnz =
        nnz_under(a, reference_min_degree_ordering(a));
    EXPECT_LE(static_cast<double>(lnz),
              1.05 * static_cast<double>(reference_lnz))
        << name << ": " << lnz << " vs exact greedy " << reference_lnz;
    EXPECT_EQ(SparseCholesky::factor(
                  a, {.ordering = CholeskyOptions::Ordering::kMinDegree})
                  .factor_nnz(),
              lnz)
        << name;

    // The in-ordering count is exact: a budget of nnz(L) passes, one less
    // stops, and the reused workspace gives the fresh order.
    EXPECT_FALSE(min_degree_ordering(a.row_ptr(), a.col_idx(), ws, order,
                                     lnz - 1))
        << name;
    EXPECT_TRUE(
        min_degree_ordering(a.row_ptr(), a.col_idx(), ws, order, lnz))
        << name;
    EXPECT_EQ(order, fresh) << name << " (reused workspace)";
  }
}

TEST(Ordering, MinDegreePermutationValid) {
  const Graph g = triangulated_grid(8, 8);
  const CsrMatrix l = laplacian(g);
  const auto order = min_degree_ordering(l);
  std::vector<Vertex> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (Index i = 0; i < l.rows(); ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], static_cast<Vertex>(i));
  }
}

TEST(Ordering, PermuteSymmetricPreservesSpectrumSample) {
  Rng rng(6);
  const Graph g = erdos_renyi_connected(30, 90, rng);
  const CsrMatrix l = laplacian(g);
  const auto order = rcm_ordering(l);
  const CsrMatrix lp = permute_symmetric(l, order);
  // Quadratic forms agree under the permutation.
  const Vec x = rng.normal_vector(30);
  Vec xp(30);
  for (Index i = 0; i < 30; ++i) {
    xp[static_cast<std::size_t>(i)] =
        x[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  }
  EXPECT_NEAR(l.quadratic(x), lp.quadratic(xp), 1e-9);
  std::vector<Vertex> bad = {0, 0, 1};
  EXPECT_THROW((void)permute_symmetric(l, bad), std::invalid_argument);
}

TEST(EliminationTree, PathGraphIsChain) {
  // Natural-ordered path: etree parent of k is k+1.
  const Graph g = path_graph(6);
  const CsrMatrix l = laplacian(g);
  const auto parent = elimination_tree(l);
  for (Index k = 0; k + 1 < 6; ++k) {
    EXPECT_EQ(parent[static_cast<std::size_t>(k)], static_cast<Vertex>(k + 1));
  }
  EXPECT_EQ(parent[5], kInvalidVertex);
}

TEST(Cholesky, FactorsSpdAndSolves) {
  Rng rng(7);
  for (auto ordering : {CholeskyOptions::Ordering::kNatural,
                        CholeskyOptions::Ordering::kRcm,
                        CholeskyOptions::Ordering::kMinDegree}) {
    const Graph g =
        triangulated_grid(9, 9, WeightModel::uniform(0.5, 2.0), &rng);
    const CsrMatrix a = spd_matrix(g, 0.3);
    const SparseCholesky chol =
        SparseCholesky::factor(a, {.ordering = ordering});
    const Vec x_true = rng.normal_vector(a.rows());
    const Vec b = a.multiply(x_true);
    const Vec x = chol.solve(b);
    EXPECT_LT(relative_error(x, x_true), 1e-10)
        << "ordering " << static_cast<int>(ordering);
    EXPECT_GE(chol.factor_nnz(), a.rows());  // at least the diagonal
    EXPECT_GE(chol.fill_ratio(), 1.0 - 1e-12);
    EXPECT_GT(chol.memory_bytes(), 0u);
  }
}

TEST(Cholesky, MatchesDenseOracle) {
  Rng rng(8);
  const Graph g = erdos_renyi_connected(25, 80, rng,
                                        WeightModel::uniform(0.5, 3.0));
  const CsrMatrix a = spd_matrix(g, 1.0);
  const SparseCholesky chol = SparseCholesky::factor(a);
  DenseMatrix d = DenseMatrix::from_csr(a);
  const DenseMatrix d_saved = d;
  d.cholesky_in_place();
  for (int trial = 0; trial < 5; ++trial) {
    const Vec b = rng.normal_vector(a.rows());
    const Vec xs = chol.solve(b);
    const Vec xd = d.cholesky_solve(b);
    EXPECT_LT(relative_error(xs, xd), 1e-10);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  // Laplacian alone is singular: factoring it as SPD must fail.
  const Graph g = grid_2d(4, 4);
  const CsrMatrix l = laplacian(g);
  EXPECT_THROW((void)SparseCholesky::factor(l), std::runtime_error);
}

TEST(Cholesky, LaplacianModeSolvesPseudoinverse) {
  Rng rng(9);
  const Graph g =
      triangulated_grid(8, 8, WeightModel::log_uniform(0.1, 10.0), &rng);
  const CsrMatrix l = laplacian(g);
  const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
  EXPECT_EQ(chol.size(), l.rows());

  Vec b = rng.normal_vector(l.rows());
  project_out_mean(b);
  const Vec x = chol.solve(b);
  EXPECT_NEAR(mean(x), 0.0, 1e-12);
  EXPECT_LT(relative_error(l.multiply(x), b), 1e-10);

  // Unbalanced b handled by projection.
  Vec b2 = b;
  for (double& v : b2) v += 3.0;
  const Vec x2 = chol.solve(b2);
  EXPECT_LT(relative_error(x2, x), 1e-10);
}

TEST(Cholesky, LaplacianPinChoices) {
  Rng rng(10);
  const Graph g = grid_2d(6, 6);
  const CsrMatrix l = laplacian(g);
  Vec b = rng.normal_vector(l.rows());
  project_out_mean(b);
  const Vec x_default = SparseCholesky::factor_laplacian(l).solve(b);
  const Vec x_pin0 =
      SparseCholesky::factor_laplacian(l, {}, /*pin=*/0).solve(b);
  EXPECT_LT(relative_error(x_pin0, x_default), 1e-9);
  EXPECT_THROW(
      (void)SparseCholesky::factor_laplacian(l, {}, /*pin=*/99),
      std::invalid_argument);
}

TEST(Cholesky, RefactorIntoReusedStorageMatchesFreshFactor) {
  // One factor and one workspace carried across graphs of different sizes
  // and orderings (the densification loop's per-round pattern) must give
  // the bits of a fresh factorization, and concurrent solves on one factor
  // (the embedding's column-parallel path) must agree with a serial solve.
  Rng rng(12);
  std::vector<Graph> graphs;
  graphs.push_back(grid_2d(12, 9, WeightModel::log_uniform(0.1, 10.0), &rng));
  graphs.push_back(barabasi_albert(150, 3, rng));
  graphs.push_back(grid_2d(5, 5));
  SparseCholesky reused;
  CholeskyWorkspace ws;
  for (const Graph& g : graphs) {
    const CsrMatrix l = laplacian(g);
    for (auto ordering : {CholeskyOptions::Ordering::kMinDegree,
                          CholeskyOptions::Ordering::kRcm}) {
      reused.refactor_laplacian(l, {.ordering = ordering}, ws);
      const SparseCholesky fresh =
          SparseCholesky::factor_laplacian(l, {.ordering = ordering});
      ASSERT_EQ(reused.factor_nnz(), fresh.factor_nnz());
      const Vec b = rng.normal_vector(l.rows());
      const Vec expected = fresh.solve(b);
      EXPECT_EQ(reused.solve(b), expected);

      std::vector<Vec> out(4);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < out.size(); ++t) {
        threads.emplace_back([&, t] {
          for (int rep = 0; rep < 20; ++rep) out[t] = reused.solve(b);
        });
      }
      for (std::thread& t : threads) t.join();
      for (const Vec& x : out) EXPECT_EQ(x, expected);
    }
  }
}

TEST(Cholesky, FillBudgetStopsBeforeFactoring) {
  // The budget is checked against the exact factor nonzero count: a budget
  // of exactly nnz(L) factors, one less stops (during the min-degree pass
  // or, for other orderings, after the symbolic pass) with the factor left
  // empty, and the same factor and workspace refactor normally afterwards.
  Rng rng(13);
  const Graph g = erdos_renyi_connected(120, 720, rng);
  const CsrMatrix l = laplacian(g);
  const Vec b = rng.normal_vector(l.rows());
  SparseCholesky chol;
  CholeskyWorkspace ws;
  for (auto ordering : {CholeskyOptions::Ordering::kMinDegree,
                        CholeskyOptions::Ordering::kRcm}) {
    const SparseCholesky fresh =
        SparseCholesky::factor_laplacian(l, {.ordering = ordering});
    const Index lnz = fresh.factor_nnz();
    EXPECT_FALSE(
        chol.refactor_laplacian(l, {.ordering = ordering}, ws, -1, lnz - 1));
    EXPECT_EQ(chol.size(), 0);
    EXPECT_EQ(chol.factor_nnz(), 0);
    EXPECT_TRUE(
        chol.refactor_laplacian(l, {.ordering = ordering}, ws, -1, lnz));
    ASSERT_EQ(chol.factor_nnz(), lnz);
    EXPECT_EQ(chol.solve(b), fresh.solve(b));
  }
  MinDegreeWorkspace mws;
  std::vector<Vertex> order;
  EXPECT_FALSE(min_degree_ordering(l.row_ptr(), l.col_idx(), mws, order, 10));
  EXPECT_LT(order.size(), static_cast<std::size_t>(l.rows()));
  EXPECT_TRUE(min_degree_ordering(l.row_ptr(), l.col_idx(), mws, order));
  EXPECT_EQ(order, min_degree_ordering(l));
}

TEST(Cholesky, PreconditionerAdapterWorks) {
  Rng rng(11);
  const Graph g = grid_2d(10, 10);
  const CsrMatrix l = laplacian(g);
  const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
  const CholeskyPreconditioner pc(chol);
  Vec b = rng.normal_vector(l.rows());
  project_out_mean(b);
  Vec x(static_cast<std::size_t>(l.rows()), 0.0);
  // Exact preconditioner: PCG converges in O(1) iterations.
  const PcgResult res = pcg_solve(l, b, x, pc,
                                  {.max_iterations = 10,
                                   .rel_tolerance = 1e-10,
                                   .project_constants = true});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 3);
}

TEST(Amg, HierarchyShrinksAndSolves) {
  Rng rng(12);
  const Graph g = grid_2d(32, 32, WeightModel::uniform(0.5, 2.0), &rng);
  const CsrMatrix l = laplacian(g);
  const AmgHierarchy amg = AmgHierarchy::build(l);
  EXPECT_GT(amg.num_levels(), 1);
  EXPECT_LT(amg.operator_complexity(), 3.0);

  Vec x_true = rng.normal_vector(l.rows());
  project_out_mean(x_true);
  const Vec b = l.multiply(x_true);
  Vec x(static_cast<std::size_t>(l.rows()), 0.0);
  const Index cycles = amg.solve(b, x, 1e-8, 200);
  EXPECT_LT(cycles, 200);
  EXPECT_LT(relative_error(x, x_true), 1e-5);
}

TEST(Amg, PreconditionerAcceleratesPcg) {
  Rng rng(13);
  const Graph g = grid_2d(40, 40, WeightModel::log_uniform(0.1, 10.0), &rng);
  const CsrMatrix l = laplacian(g);
  Vec b = rng.normal_vector(l.rows());
  project_out_mean(b);
  const PcgOptions opts = {.max_iterations = 2000,
                           .rel_tolerance = 1e-8,
                           .project_constants = true};
  Vec x1(static_cast<std::size_t>(l.rows()), 0.0);
  const PcgResult plain = cg_solve(l, b, x1, opts);
  const AmgHierarchy amg = AmgHierarchy::build(l);
  const AmgPreconditioner ap(amg);
  Vec x2(static_cast<std::size_t>(l.rows()), 0.0);
  const PcgResult prec = pcg_solve(l, b, x2, ap, opts);
  EXPECT_TRUE(prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations / 2);
}

TEST(Amg, TinyMatrixSingleLevel) {
  const Graph g = path_graph(4);
  const CsrMatrix l = laplacian(g);
  const AmgHierarchy amg = AmgHierarchy::build(l, {.coarse_size = 64});
  EXPECT_EQ(amg.num_levels(), 1);
  Vec b = {1.0, -1.0, 1.0, -1.0};
  Vec x(4, 0.0);
  amg.vcycle(b, x);
  const Vec lx = l.multiply(x);
  EXPECT_LT(relative_error(lx, b), 1e-6);  // direct coarse solve is exact
}

TEST(Amg, GaussSeidelSmootherConvergesFaster) {
  // Symmetric GS needs fewer V-cycles than weighted Jacobi for the same
  // tolerance (it is the stronger smoother; wall-time is another matter —
  // see the inner-solver ablation).
  Rng rng(99);
  const Graph g = grid_2d(24, 24, WeightModel::uniform(0.5, 2.0), &rng);
  const CsrMatrix l = laplacian(g);
  Vec x_true = rng.normal_vector(l.rows());
  project_out_mean(x_true);
  const Vec b = l.multiply(x_true);

  const AmgHierarchy jac = AmgHierarchy::build(
      l, {.smoother = AmgOptions::Smoother::kJacobi});
  const AmgHierarchy gs = AmgHierarchy::build(
      l, {.smoother = AmgOptions::Smoother::kGaussSeidel});
  Vec xj(b.size(), 0.0);
  Vec xg(b.size(), 0.0);
  const Index cj = jac.solve(b, xj, 1e-8, 400);
  const Index cg = gs.solve(b, xg, 1e-8, 400);
  EXPECT_LT(cg, cj);
  EXPECT_LT(relative_error(xg, x_true), 1e-5);
  // GS smoothing keeps the V-cycle symmetric: valid as PCG preconditioner.
  const AmgPreconditioner pc(gs);
  Vec xp(b.size(), 0.0);
  const PcgResult pr = pcg_solve(l, b, xp, pc,
                                 {.max_iterations = 200,
                                  .rel_tolerance = 1e-8,
                                  .project_constants = true});
  EXPECT_TRUE(pr.converged);
}

TEST(Amg, SpdModeWorksWithoutProjection) {
  Rng rng(14);
  const Graph g = grid_2d(16, 16);
  const CsrMatrix a = spd_matrix(g, 0.5);
  const AmgHierarchy amg =
      AmgHierarchy::build(a, {.laplacian_mode = false});
  const Vec x_true = rng.normal_vector(a.rows());
  const Vec b = a.multiply(x_true);
  Vec x(static_cast<std::size_t>(a.rows()), 0.0);
  amg.solve(b, x, 1e-8, 300);
  EXPECT_LT(relative_error(x, x_true), 1e-5);
}

// Parameterized: Cholesky Laplacian-mode residual across graph families
// and orderings.

struct CholCase {
  const char* name;
  int graph_kind;
  CholeskyOptions::Ordering ordering;
};

class CholeskySweep : public ::testing::TestWithParam<CholCase> {};

TEST_P(CholeskySweep, GroundedLaplacianResidual) {
  const auto& p = GetParam();
  Rng rng(55);
  Graph g;
  switch (p.graph_kind) {
    case 0:
      g = grid_2d(11, 13);
      break;
    case 1:
      g = triangulated_grid(9, 9, WeightModel::log_uniform(0.1, 10.0), &rng);
      break;
    default:
      g = barabasi_albert(120, 3, rng);
      break;
  }
  const CsrMatrix l = laplacian(g);
  const SparseCholesky chol =
      SparseCholesky::factor_laplacian(l, {.ordering = p.ordering});
  Vec b = rng.normal_vector(l.rows());
  project_out_mean(b);
  const Vec x = chol.solve(b);
  EXPECT_LT(relative_error(l.multiply(x), b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, CholeskySweep,
    ::testing::Values(
        CholCase{"grid_rcm", 0, CholeskyOptions::Ordering::kRcm},
        CholCase{"grid_natural", 0, CholeskyOptions::Ordering::kNatural},
        CholCase{"grid_mindeg", 0, CholeskyOptions::Ordering::kMinDegree},
        CholCase{"tri_rcm", 1, CholeskyOptions::Ordering::kRcm},
        CholCase{"tri_mindeg", 1, CholeskyOptions::Ordering::kMinDegree},
        CholCase{"ba_rcm", 2, CholeskyOptions::Ordering::kRcm},
        CholCase{"ba_mindeg", 2, CholeskyOptions::Ordering::kMinDegree}),
    [](const ::testing::TestParamInfo<CholCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ssp
