// Failure-injection tests: every module must reject malformed input with a
// typed exception (std::invalid_argument for API misuse, std::runtime_error
// for data/numeric failures) rather than corrupt state or crash — and
// partial/degenerate configurations must still uphold the documented
// invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/edge_filter.hpp"
#include "core/embedding.hpp"
#include "core/rescale.hpp"
#include "core/resistance_sampling.hpp"
#include "core/sparsifier.hpp"
#include "eigen/operators.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/laplacian.hpp"
#include "la/vector_ops.hpp"
#include "solver/amg.hpp"
#include "solver/cholesky.hpp"
#include "solver/pcg.hpp"
#include "tree/kruskal.hpp"
#include "tree/tree_solver.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

TEST(FailureInjection, GraphRejectsNonFiniteWeights) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, -std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 0);  // no partial insertion
}

TEST(FailureInjection, LaplacianConversionRejectsPositiveOffDiagonal) {
  const std::vector<Triplet> ts = {
      {0, 0, 1.0}, {0, 1, 0.5}, {1, 0, 0.5}, {1, 1, 1.0}};
  const CsrMatrix not_laplacian = CsrMatrix::from_triplets(2, 2, ts);
  EXPECT_THROW((void)graph_from_laplacian(not_laplacian),
               std::invalid_argument);
}

TEST(FailureInjection, TreeSolverSizeMismatch) {
  const Graph g = path_graph(5);
  const SpanningTree t(g, {0, 1, 2, 3});
  const TreeSolver solver(t);
  const Vec wrong(3, 1.0);
  Vec out(5);
  EXPECT_THROW(solver.solve(wrong, out), std::invalid_argument);
  Vec short_out(2);
  const Vec ok(5, 0.0);
  EXPECT_THROW(solver.solve(ok, short_out), std::invalid_argument);
}

TEST(FailureInjection, CholeskyShiftCanRepairSemidefinite) {
  // L is singular -> factor() throws; a positive shift repairs it.
  const Graph g = grid_2d(5, 5);
  const CsrMatrix l = laplacian(g);
  EXPECT_THROW((void)SparseCholesky::factor(l), std::runtime_error);
  const SparseCholesky shifted =
      SparseCholesky::factor(l, {.diagonal_shift = 1e-3});
  Rng rng(1);
  const Vec b = rng.normal_vector(l.rows());
  const Vec x = shifted.solve(b);
  // Residual wrt the shifted operator is tiny.
  Vec lx = l.multiply(x);
  for (std::size_t i = 0; i < lx.size(); ++i) lx[i] += 1e-3 * x[i];
  EXPECT_LT(relative_error(lx, b), 1e-10);
}

TEST(FailureInjection, AmgRejectsNonPositiveDiagonal) {
  // A matrix with a zero diagonal entry cannot be Jacobi-smoothed.
  const std::vector<Triplet> ts = {{0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 1.0}};
  const CsrMatrix bad = CsrMatrix::from_triplets(2, 2, ts);
  EXPECT_THROW((void)AmgHierarchy::build(bad), std::invalid_argument);
}

TEST(FailureInjection, SparsifyPartialBudgetKeepsInvariants) {
  // One round with a tiny per-round cap: result may miss the target but
  // must keep every structural invariant.
  Rng rng(2);
  const Graph g = grid_2d(16, 16, WeightModel::log_uniform(0.1, 10.0), &rng);
  SparsifyOptions opts;
  opts.sigma2 = 5.0;  // unreachable in one round
  opts.max_rounds = 1;
  opts.max_edges_per_round = 4;
  const SparsifyResult res = sparsify(g, opts);
  EXPECT_FALSE(res.reached_target);
  EXPECT_LE(res.num_edges(),
            static_cast<EdgeId>(g.num_vertices()) - 1 + 4);
  EXPECT_TRUE(is_connected(res.extract(g)));
  EXPECT_GE(res.sigma2_estimate, 1.0);
}

TEST(FailureInjection, EmbeddingWhenSparsifierEqualsGraph) {
  // No off-tree edges: the embedding must return an empty, consistent
  // report and the filter must select nothing.
  const Graph g = path_graph(6);
  const SpanningTree t(g, {0, 1, 2, 3, 4});
  const TreeSolver solver(t);
  std::vector<char> in_p(static_cast<std::size_t>(g.num_edges()), 1);
  Rng rng(3);
  const OffTreeEmbedding emb = compute_offtree_heat(
      g, in_p, make_tree_solver_op(solver), {}, rng);
  EXPECT_TRUE(emb.offtree_edges.empty());
  EXPECT_EQ(emb.heat_max, 0.0);
  const auto picked = filter_offtree_edges(g, emb, 0.5, {});
  EXPECT_TRUE(picked.empty());
}

TEST(FailureInjection, FilterRejectsMalformedInputs) {
  const Graph g = path_graph(4);
  OffTreeEmbedding emb;
  emb.offtree_edges = {0};
  emb.heat = {1.0, 2.0};  // size mismatch
  emb.heat_max = 2.0;
  EXPECT_THROW((void)filter_offtree_edges(g, emb, 0.5, {}),
               std::invalid_argument);
  emb.heat = {1.0};
  EXPECT_THROW((void)filter_offtree_edges(g, emb, 1.5, {}),
               std::invalid_argument);  // theta out of range
  EXPECT_THROW(
      (void)filter_offtree_edges(
          g, emb, 0.5,
          {.similarity = SimilarityPolicy::kBounded, .node_cap = 0}),
      std::invalid_argument);
}

TEST(FailureInjection, SsRejectsBadOptions) {
  const Graph g = path_graph(4);
  SsOptions opts;
  opts.jl_projections = 0;
  EXPECT_THROW((void)spielman_srivastava_sparsify(g, opts),
               std::invalid_argument);
  Graph disconnected(4);
  disconnected.add_edge(0, 1, 1.0);
  disconnected.add_edge(2, 3, 1.0);
  disconnected.finalize();
  EXPECT_THROW((void)spielman_srivastava_sparsify(disconnected, {}),
               std::invalid_argument);  // not connected
}

TEST(FailureInjection, PcgWithWrongSizePreconditioner) {
  const Graph g = grid_2d(4, 4);
  const CsrMatrix a = laplacian(g);
  const IdentityPreconditioner wrong(7);
  Vec b(static_cast<std::size_t>(a.rows()), 1.0);
  Vec x(b.size(), 0.0);
  EXPECT_THROW((void)pcg_solve(a, b, x, wrong, {}), std::invalid_argument);
}

TEST(FailureInjection, RescaleRequiresEstimates) {
  const Graph g = path_graph(4);
  SparsifyResult empty;
  empty.edges = {0, 1, 2};
  EXPECT_THROW((void)rescale_sparsifier(g, empty), std::invalid_argument);
}

TEST(FailureInjection, DegenerateThresholds) {
  // theta exactly 1 keeps only edges tied with heat_max.
  const Graph g = cycle_graph(4);
  OffTreeEmbedding emb;
  emb.offtree_edges = {3};
  emb.heat = {0.8};
  emb.heat_max = 1.0;  // max elsewhere (hypothetically)
  const auto none = filter_offtree_edges(g, emb, 1.0, {});
  EXPECT_TRUE(none.empty());
  emb.heat = {1.0};
  const auto one = filter_offtree_edges(g, emb, 1.0, {});
  EXPECT_EQ(one.size(), 1u);
}

}  // namespace
}  // namespace ssp
