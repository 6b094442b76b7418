// Tests for src/partition: sign cut, cut metrics, and the Table 3 spectral
// bisection (direct vs sparsifier-preconditioned solvers).

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators/community.hpp"
#include "graph/generators/lattice.hpp"
#include "partition/metrics.hpp"
#include "partition/recursive_bisection.hpp"
#include "partition/sign_cut.hpp"
#include "partition/spectral_bisection.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

TEST(SignCut, BasicSplit) {
  const Vec v = {-1.0, 2.0, 0.0, -0.5};
  const auto side = sign_cut(v);
  ASSERT_EQ(side.size(), 4u);
  EXPECT_EQ(side[0], 0);
  EXPECT_EQ(side[1], 1);
  EXPECT_EQ(side[2], 1);  // zero counts as positive
  EXPECT_EQ(side[3], 0);
  EXPECT_DOUBLE_EQ(sign_balance(side), 1.0);
}

TEST(SignCut, BalanceInfinityWhenOneSided) {
  const std::vector<std::uint8_t> all_pos = {1, 1, 1};
  EXPECT_TRUE(std::isinf(sign_balance(all_pos)));
}

TEST(SignCut, DisagreementIsSignInvariant) {
  const std::vector<std::uint8_t> a = {1, 1, 0, 0};
  const std::vector<std::uint8_t> b = {0, 0, 1, 1};  // global flip of a
  EXPECT_DOUBLE_EQ(sign_disagreement(a, b), 0.0);
  const std::vector<std::uint8_t> c = {1, 0, 0, 0};
  EXPECT_DOUBLE_EQ(sign_disagreement(a, c), 0.25);
  const std::vector<std::uint8_t> short_vec = {1};
  EXPECT_THROW((void)sign_disagreement(a, short_vec), std::invalid_argument);
}

TEST(Metrics, CutWeightAndConductance) {
  // Two triangles joined by one weight-0.5 bridge.
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 1.0);
  g.add_edge(3, 5, 1.0);
  g.add_edge(2, 3, 0.5);
  g.finalize();
  const std::vector<std::uint8_t> side = {0, 0, 0, 1, 1, 1};
  const CutMetrics m = evaluate_cut(g, side);
  EXPECT_DOUBLE_EQ(m.cut_weight, 0.5);
  EXPECT_EQ(m.cut_edges, 1);
  EXPECT_DOUBLE_EQ(m.balance, 1.0);
  // vol of each side = 6.5; conductance = 0.5/6.5.
  EXPECT_NEAR(m.conductance, 0.5 / 6.5, 1e-12);

  const std::vector<std::uint8_t> empty_side = {1, 1, 1, 1, 1, 1};
  EXPECT_THROW((void)evaluate_cut(g, empty_side), std::invalid_argument);
}

TEST(Bisection, RecoversDumbbellSplitBothSolvers) {
  Rng rng(1);
  const Graph g = dumbbell_graph(60, 2, 0.01, rng);
  for (FiedlerSolverKind kind : {FiedlerSolverKind::kDirectCholesky,
                                 FiedlerSolverKind::kSparsifierPcg}) {
    BisectionOptions opts;
    opts.solver = kind;
    const BisectionResult res = spectral_bisection(g, opts);
    // Ground truth: vertices 0..59 vs 60..119.
    std::vector<std::uint8_t> truth(120, 0);
    for (std::size_t v = 60; v < 120; ++v) truth[v] = 1;
    EXPECT_LT(sign_disagreement(res.partition, truth), 0.02)
        << "solver " << static_cast<int>(kind);
    EXPECT_LE(res.metrics.cut_weight, 0.05);
    EXPECT_GT(res.power_iterations, 0);
    EXPECT_GT(res.solve_seconds, 0.0);
  }
}

TEST(Bisection, SolversAgreeOnMesh) {
  Rng rng(2);
  const Graph g = grid_2d(24, 17, WeightModel::uniform(0.5, 2.0), &rng);
  BisectionOptions direct;
  direct.solver = FiedlerSolverKind::kDirectCholesky;
  const BisectionResult rd = spectral_bisection(g, direct);

  BisectionOptions iter;
  iter.solver = FiedlerSolverKind::kSparsifierPcg;
  iter.sparsify.sigma2 = 200.0;
  const BisectionResult ri = spectral_bisection(g, iter);

  // Paper Table 3: Rel.Err between solvers is small (<= ~4e-2).
  EXPECT_LT(sign_disagreement(rd.partition, ri.partition), 0.05);
  EXPECT_NEAR(ri.lambda2, rd.lambda2, 0.05 * rd.lambda2);
  EXPECT_GT(ri.sparsifier_edges, 0);
  EXPECT_EQ(rd.sparsifier_edges, 0);
  EXPECT_GT(rd.solver_memory_bytes, 0u);
  EXPECT_GT(ri.solver_memory_bytes, 0u);
  // Balance close to 1 on a homogeneous mesh.
  EXPECT_GT(ri.metrics.balance, 0.5);
  EXPECT_LT(ri.metrics.balance, 2.0);
}

TEST(RecursiveBisection, SplitsMeshIntoBalancedParts) {
  Rng rng(3);
  const Graph g = grid_2d(24, 24, WeightModel::uniform(0.5, 2.0), &rng);
  RecursiveBisectionOptions opts;
  opts.num_parts = 4;
  const RecursiveBisectionResult res = recursive_bisection(g, opts);
  EXPECT_EQ(res.parts, 4);
  ASSERT_EQ(res.assignment.size(), static_cast<std::size_t>(576));
  // Balance: every part within [0.5, 2.0]x of the ideal size.
  std::vector<Index> sizes(4, 0);
  for (Vertex part : res.assignment) {
    ASSERT_GE(part, 0);
    ASSERT_LT(part, 4);
    ++sizes[static_cast<std::size_t>(part)];
  }
  for (Index s : sizes) {
    EXPECT_GE(s, 576 / 8);
    EXPECT_LE(s, 576 / 2);
  }
  EXPECT_GT(res.total_cut_weight, 0.0);
  // Cut is far below total weight (parts are contiguous-ish).
  EXPECT_LT(res.total_cut_weight, 0.25 * g.total_weight());
}

TEST(RecursiveBisection, RespectsMinPartSize) {
  Rng rng(4);
  const Graph g = grid_2d(8, 8);
  RecursiveBisectionOptions opts;
  opts.num_parts = 16;
  opts.min_part_size = 16;  // parts below 32 vertices never split
  const RecursiveBisectionResult res = recursive_bisection(g, opts);
  EXPECT_LE(res.parts, 4);  // 64 vertices / 2*16 limit
  EXPECT_GE(res.parts, 2);
}

// Edge cases the scale layer (src/scale/) depends on.

// Every produced label in [0, parts) is non-empty and in range.
void expect_compact_labels(const Graph& g,
                           const RecursiveBisectionResult& res) {
  ASSERT_EQ(res.assignment.size(), static_cast<std::size_t>(g.num_vertices()));
  std::vector<Index> sizes(static_cast<std::size_t>(res.parts), 0);
  for (Vertex part : res.assignment) {
    ASSERT_GE(part, 0);
    ASSERT_LT(part, res.parts);
    ++sizes[static_cast<std::size_t>(part)];
  }
  for (Index s : sizes) EXPECT_GT(s, 0) << "empty part label";
}

TEST(RecursiveBisection, PartCountNeedNotBePowerOfTwo) {
  Rng rng(5);
  const Graph g = grid_2d(20, 18, WeightModel::uniform(0.5, 2.0), &rng);
  for (Index k : {3, 5, 6}) {
    RecursiveBisectionOptions opts;
    opts.num_parts = k;
    const RecursiveBisectionResult res = recursive_bisection(g, opts);
    EXPECT_EQ(res.parts, k) << "k = " << k;
    expect_compact_labels(g, res);
  }
}

TEST(RecursiveBisection, DisconnectedInputNeverSplitsAcrossComponents) {
  // Two grids with no edges between them.
  const Graph a = grid_2d(8, 8);
  const Graph b = grid_2d(7, 7);
  Graph g(a.num_vertices() + b.num_vertices());
  for (const Edge& e : a.edges()) g.add_edge(e.u, e.v, e.weight);
  for (const Edge& e : b.edges()) {
    g.add_edge(e.u + a.num_vertices(), e.v + a.num_vertices(), e.weight);
  }
  g.finalize();

  RecursiveBisectionOptions opts;
  opts.num_parts = 4;
  const RecursiveBisectionResult res = recursive_bisection(g, opts);
  EXPECT_EQ(res.parts, 4);
  expect_compact_labels(g, res);
  // No part contains vertices from both components.
  std::vector<std::uint8_t> in_a(static_cast<std::size_t>(res.parts), 0);
  std::vector<std::uint8_t> in_b(static_cast<std::size_t>(res.parts), 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto part = static_cast<std::size_t>(
        res.assignment[static_cast<std::size_t>(v)]);
    (v < a.num_vertices() ? in_a : in_b)[part] = 1;
  }
  for (Index p = 0; p < res.parts; ++p) {
    EXPECT_FALSE(in_a[static_cast<std::size_t>(p)] != 0 &&
                 in_b[static_cast<std::size_t>(p)] != 0)
        << "part " << p << " spans components";
  }
}

TEST(RecursiveBisection, MoreComponentsThanRequestedParts) {
  // Three 3x3 grids, num_parts = 2: one part per component regardless.
  Graph g(27);
  const Graph cell = grid_2d(3, 3);
  for (Vertex offset : {0, 9, 18}) {
    for (const Edge& e : cell.edges()) {
      g.add_edge(e.u + offset, e.v + offset, e.weight);
    }
  }
  g.finalize();
  RecursiveBisectionOptions opts;
  opts.num_parts = 2;
  const RecursiveBisectionResult res = recursive_bisection(g, opts);
  EXPECT_EQ(res.parts, 3);
  expect_compact_labels(g, res);
  EXPECT_DOUBLE_EQ(res.total_cut_weight, 0.0);
}

TEST(RecursiveBisection, PartCountBeyondVertexCountSaturates) {
  const Graph g = grid_2d(6, 6);  // 36 vertices
  RecursiveBisectionOptions opts;
  opts.num_parts = 64;  // >= n: min_part_size stops splitting long before
  const RecursiveBisectionResult res = recursive_bisection(g, opts);
  EXPECT_GE(res.parts, 2);
  EXPECT_LE(res.parts, static_cast<Index>(g.num_vertices()) /
                           opts.min_part_size);
  expect_compact_labels(g, res);
}

TEST(RecursiveBisection, InputValidation) {
  const Graph g = grid_2d(6, 6);
  RecursiveBisectionOptions opts;
  opts.num_parts = 1;
  EXPECT_THROW((void)recursive_bisection(g, opts), std::invalid_argument);
  opts.num_parts = 2;
  opts.min_part_size = 2;
  EXPECT_THROW((void)recursive_bisection(g, opts), std::invalid_argument);
}

TEST(Bisection, InputValidation) {
  Graph small(2);
  small.add_edge(0, 1, 1.0);
  small.finalize();
  EXPECT_THROW((void)spectral_bisection(small, {}), std::invalid_argument);

  Graph disconnected(6);
  disconnected.add_edge(0, 1, 1.0);
  disconnected.add_edge(2, 3, 1.0);
  disconnected.add_edge(4, 5, 1.0);
  disconnected.finalize();
  EXPECT_THROW((void)spectral_bisection(disconnected, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ssp
