// Unit tests for the core similarity-aware sparsification pipeline:
// Joule-heat embedding identities, λ estimators, θ_σ filtering, the
// densification loop, the public sparsify() API, the Spielman–Srivastava
// baseline, and the rescaling extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "core/edge_filter.hpp"
#include "core/eigen_estimate.hpp"
#include "core/embedding.hpp"
#include "core/rescale.hpp"
#include "core/resistance_sampling.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "eigen/operators.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/laplacian.hpp"
#include "la/dense_eigen.hpp"
#include "la/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "solver/pcg.hpp"
#include "tree/kruskal.hpp"
#include "tree/stretch.hpp"
#include "tree/tree_solver.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

std::vector<char> tree_membership(const Graph& g, const SpanningTree& t) {
  std::vector<char> in_p(static_cast<std::size_t>(g.num_edges()), 0);
  for (EdgeId e : t.tree_edge_ids()) in_p[static_cast<std::size_t>(e)] = 1;
  return in_p;
}

TEST(Embedding, HeatMatchesDirectQuadraticForm) {
  // Σ_offtree heat(p,q) must equal h_tᵀ (L_G − L_P) h_t summed over the
  // random vectors — Eq. (6) is an exact identity, not an approximation.
  Rng rng(1);
  const Graph g = erdos_renyi_connected(40, 150, rng,
                                        WeightModel::uniform(0.5, 2.0));
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const auto in_p = tree_membership(g, tree);

  // Re-run the embedding manually with the same RNG stream to capture h_t.
  const CsrMatrix lg = laplacian(g);
  const CsrMatrix lp = laplacian(tree.as_graph());
  const EmbeddingOptions opts = {.power_steps = 2, .num_vectors = 3};

  Rng rng_a(77);
  const OffTreeEmbedding emb = compute_offtree_heat(
      g, in_p, make_tree_solver_op(solver), opts, rng_a);

  // Replay the documented randomness contract: the call advances the
  // parent once, then probe j draws from split(j).
  Rng rng_b(77);
  (void)rng_b();
  const Rng probe_root = rng_b;
  double expected_total = 0.0;
  for (Index j = 0; j < 3; ++j) {
    Rng probe_rng = probe_root.split(static_cast<std::uint64_t>(j));
    Vec h = random_probe_vector(g.num_vertices(), probe_rng);
    for (int s = 0; s < 2; ++s) {
      Vec gh = lg.multiply(h);
      project_out_mean(gh);
      solver.solve(gh, h);
      project_out_mean(h);
    }
    expected_total += lg.quadratic(h) - lp.quadratic(h);
  }
  EXPECT_NEAR(emb.total_heat, expected_total,
              1e-9 * std::max(1.0, expected_total));
}

TEST(Embedding, HeatIsPositiveAndBoundedByMax) {
  Rng rng(2);
  const Graph g = grid_2d(10, 10, WeightModel::log_uniform(0.1, 10.0), &rng);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const OffTreeEmbedding emb = compute_offtree_heat(
      g, tree_membership(g, tree), make_tree_solver_op(solver), {}, rng);
  ASSERT_EQ(emb.offtree_edges.size(), emb.heat.size());
  EXPECT_EQ(static_cast<EdgeId>(emb.offtree_edges.size()),
            tree.num_offtree_edges());
  for (double h : emb.heat) {
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, emb.heat_max * (1 + 1e-12));
  }
  EXPECT_GT(emb.heat_max, 0.0);
  EXPECT_EQ(emb.num_vectors, 6);  // max(6, ceil(log2(100)/2))
}

TEST(Embedding, HighStretchEdgesRunHot) {
  // Rank correlation between stretch and heat: the top-stretch edge should
  // sit in the top quartile by heat (Eq. (10): stretch ≈ λ for
  // spectrally-unique edges).
  Rng rng(3);
  const Graph g = grid_2d(15, 15, WeightModel::log_uniform(0.01, 100.0), &rng);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const OffTreeEmbedding emb = compute_offtree_heat(
      g, tree_membership(g, tree), make_tree_solver_op(solver),
      {.power_steps = 2, .num_vectors = 12}, rng);
  const StretchReport st = compute_stretch(tree);

  // Identify edge with max stretch; find its heat rank.
  const auto max_it =
      std::max_element(st.offtree_stretch.begin(), st.offtree_stretch.end());
  const std::size_t max_idx =
      static_cast<std::size_t>(max_it - st.offtree_stretch.begin());
  ASSERT_EQ(st.offtree_edges[max_idx], emb.offtree_edges[max_idx]);
  const double heat_of_max_stretch = emb.heat[max_idx];
  Index hotter = 0;
  for (double h : emb.heat) {
    if (h > heat_of_max_stretch) ++hotter;
  }
  EXPECT_LT(hotter, static_cast<Index>(emb.heat.size()) / 4);
}

TEST(Embedding, InputValidation) {
  Rng rng(4);
  const Graph g = grid_2d(4, 4);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const LinOp op = make_tree_solver_op(solver);
  std::vector<char> wrong_size(3, 1);
  EXPECT_THROW((void)compute_offtree_heat(g, wrong_size, op, {}, rng),
               std::invalid_argument);
  const auto in_p = tree_membership(g, tree);
  EXPECT_THROW(
      (void)compute_offtree_heat(g, in_p, op, {.power_steps = 0}, rng),
      std::invalid_argument);
}

TEST(EigenEstimate, LambdaMinIsUpperBoundOnSmallGraphs) {
  Rng rng(5);
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    Rng grng(seed);
    const Graph g = erdos_renyi_connected(
        24, 70, grng, WeightModel::log_uniform(0.2, 5.0));
    const SpanningTree tree = max_weight_spanning_tree(g);
    const auto in_p = tree_membership(g, tree);
    const double est = estimate_lambda_min_node_coloring(g, in_p);

    const Vec oracle = dense_generalized_eigenvalues(
        DenseMatrix::from_csr(laplacian(g)),
        DenseMatrix::from_csr(laplacian(tree.as_graph())));
    const double lmin = oracle.front();
    EXPECT_GE(est, lmin - 1e-9) << "node coloring must upper-bound λ_min";
    EXPECT_GE(est, 1.0 - 1e-12);  // subgraph pencil spectrum >= 1
    // Accuracy on these graph families: within ~35% (paper reports ~10% on
    // FE matrices; random graphs are harsher).
    EXPECT_LE(est, 1.35 * lmin + 1e-9);
  }
}

TEST(EigenEstimate, GraphOverloadAgrees) {
  Rng rng(6);
  const Graph g = grid_2d(8, 8);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const double a =
      estimate_lambda_min_node_coloring(g, tree_membership(g, tree));
  const double b = estimate_lambda_min_node_coloring(g, tree.as_graph());
  EXPECT_NEAR(a, b, 1e-14);
}

TEST(EigenEstimate, LambdaMaxCloseToLanczosReference) {
  Rng rng(7);
  const Graph g = triangulated_grid(10, 10,
                                    WeightModel::log_uniform(0.1, 10.0), &rng);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const CsrMatrix lg = laplacian(g);
  const double est = estimate_lambda_max_power(
      lg, make_tree_solver_op(solver), rng, 10);
  const Vec oracle = dense_generalized_eigenvalues(
      DenseMatrix::from_csr(lg),
      DenseMatrix::from_csr(laplacian(tree.as_graph())));
  EXPECT_NEAR(est, oracle.back(), 0.06 * oracle.back());
}

TEST(Filter, ThresholdFormula) {
  // θ_σ = (σ² λ_min / λ_max)^{2t+1}.
  EXPECT_NEAR(heat_threshold(100.0, 1.0, 1000.0, 2),
              std::pow(0.1, 5.0), 1e-15);
  EXPECT_NEAR(heat_threshold(50.0, 2.0, 400.0, 1),
              std::pow(0.25, 3.0), 1e-15);
  // Clamped to 1 when the target already holds.
  EXPECT_DOUBLE_EQ(heat_threshold(100.0, 1.0, 50.0, 2), 1.0);
  EXPECT_THROW((void)heat_threshold(-1.0, 1.0, 10.0, 2),
               std::invalid_argument);
  EXPECT_THROW((void)heat_threshold(10.0, 0.0, 10.0, 2),
               std::invalid_argument);
}

TEST(Filter, SelectsAboveThresholdInHeatOrder) {
  Graph g(6);
  // Build a graph with 5 tree edges + 4 off-tree edges.
  for (Vertex v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1, 1.0);
  const EdgeId o1 = g.add_edge(0, 2, 1.0);
  const EdgeId o2 = g.add_edge(0, 3, 1.0);
  const EdgeId o3 = g.add_edge(2, 4, 1.0);
  const EdgeId o4 = g.add_edge(1, 5, 1.0);
  g.finalize();

  OffTreeEmbedding emb;
  emb.offtree_edges = {o1, o2, o3, o4};
  emb.heat = {0.9, 1.0, 0.05, 0.5};
  emb.heat_max = 1.0;

  const auto picked =
      filter_offtree_edges(g, emb, 0.3, {.similarity = SimilarityPolicy::kNone});
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0], o2);  // heat 1.0
  EXPECT_EQ(picked[1], o1);  // heat 0.9
  EXPECT_EQ(picked[2], o4);  // heat 0.5
}

TEST(Filter, NodeDisjointSuppressesSharedEndpoints) {
  Graph g(6);
  for (Vertex v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1, 1.0);
  const EdgeId o1 = g.add_edge(0, 2, 1.0);
  const EdgeId o2 = g.add_edge(0, 3, 1.0);  // shares vertex 0 with o1
  const EdgeId o3 = g.add_edge(4, 1, 1.0);
  g.finalize();

  OffTreeEmbedding emb;
  emb.offtree_edges = {o1, o2, o3};
  emb.heat = {1.0, 0.9, 0.8};
  emb.heat_max = 1.0;

  const auto picked = filter_offtree_edges(
      g, emb, 0.0, {.similarity = SimilarityPolicy::kNodeDisjoint});
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], o1);
  EXPECT_EQ(picked[1], o3);  // o2 rejected as similar

  // Bounded with cap 2 admits o2 as well.
  const auto picked2 = filter_offtree_edges(
      g, emb, 0.0,
      {.similarity = SimilarityPolicy::kBounded, .node_cap = 2});
  EXPECT_EQ(picked2.size(), 3u);
}

TEST(Filter, MaxEdgesCapRespected) {
  Graph g(8);
  for (Vertex v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1, 1.0);
  OffTreeEmbedding emb;
  for (Vertex v = 0; v + 2 < 8; ++v) {
    emb.offtree_edges.push_back(g.add_edge(v, v + 2, 1.0));
    emb.heat.push_back(1.0);
  }
  g.finalize();
  emb.heat_max = 1.0;
  const auto picked = filter_offtree_edges(
      g, emb, 0.0,
      {.similarity = SimilarityPolicy::kNone, .max_edges = 3});
  EXPECT_EQ(picked.size(), 3u);
}

// The filter as it was before lazy top-k selection: stable-sort every
// candidate by (heat desc, id asc), then walk greedily. Kept as the
// reference the batched selection must reproduce id for id.
std::vector<EdgeId> reference_filter(const Graph& g,
                                     const OffTreeEmbedding& emb,
                                     double theta, const FilterOptions& opts) {
  std::vector<EdgeId> selected;
  if (emb.offtree_edges.empty() || emb.heat_max <= 0.0) return selected;
  std::vector<std::size_t> idx;
  // θ = 0 admits every heat ≥ 0, also when heat_max is infinite.
  const double cut = theta > 0.0 ? theta * emb.heat_max : 0.0;
  for (std::size_t k = 0; k < emb.heat.size(); ++k) {
    if (emb.heat[k] >= cut) idx.push_back(k);
  }
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (emb.heat[a] != emb.heat[b]) return emb.heat[a] > emb.heat[b];
    return emb.offtree_edges[a] < emb.offtree_edges[b];
  });
  const Index cap =
      opts.similarity == SimilarityPolicy::kNodeDisjoint ? 1 : opts.node_cap;
  std::vector<Index> touched(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const std::size_t k : idx) {
    if (opts.max_edges > 0 &&
        static_cast<EdgeId>(selected.size()) >= opts.max_edges) {
      break;
    }
    const EdgeId id = emb.offtree_edges[k];
    const Edge& e = g.edge(id);
    if (opts.similarity != SimilarityPolicy::kNone) {
      auto& tu = touched[static_cast<std::size_t>(e.u)];
      auto& tv = touched[static_cast<std::size_t>(e.v)];
      if (tu >= cap || tv >= cap) continue;
      ++tu;
      ++tv;
    }
    selected.push_back(id);
  }
  return selected;
}

// A path backbone plus one random chord per entry of `heats` (parallel
// chords allowed), carrying that heat.
std::pair<Graph, OffTreeEmbedding> chord_instance(
    Vertex n, const std::vector<double>& heats, Rng& rng) {
  Graph g(n);
  for (Vertex v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, 1.0);
  OffTreeEmbedding emb;
  for (const double h : heats) {
    const auto u = static_cast<Vertex>(rng.uniform_int(0, n - 1));
    auto v = static_cast<Vertex>(rng.uniform_int(0, n - 2));
    if (v >= u) ++v;
    emb.offtree_edges.push_back(g.add_edge(u, v, 1.0));
    emb.heat.push_back(h);
    emb.heat_max = std::max(emb.heat_max, h);
  }
  g.finalize();
  return {std::move(g), std::move(emb)};
}

// `offtree` chords whose heats are drawn from `levels`, so most heats tie.
std::pair<Graph, OffTreeEmbedding> tied_heat_instance(
    Vertex n, EdgeId offtree, const std::vector<double>& levels, Rng& rng) {
  std::vector<double> heats;
  for (EdgeId k = 0; k < offtree; ++k) {
    heats.push_back(levels[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(levels.size()) - 1))]);
  }
  return chord_instance(n, heats, rng);
}

// Every policy × max_edges ∈ {0, 1, 64, > candidates} × θ ∈ {0, 0.3, 1}
// against the full-sort reference. Returns the most candidates examined
// by a max_edges = 64 run.
std::size_t expect_matches_reference(
    const std::vector<std::pair<Graph, OffTreeEmbedding>>& cases) {
  const SimilarityPolicy policies[] = {SimilarityPolicy::kNone,
                                       SimilarityPolicy::kNodeDisjoint,
                                       SimilarityPolicy::kBounded};
  std::size_t most_examined = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& [g, emb] = cases[c];
    const auto beyond = static_cast<EdgeId>(emb.heat.size()) + 1;
    for (const SimilarityPolicy policy : policies) {
      for (const EdgeId max_edges : {EdgeId{0}, EdgeId{1}, EdgeId{64}, beyond}) {
        for (const double theta : {0.0, 0.3, 1.0}) {
          SCOPED_TRACE("case " + std::to_string(c) + " policy " +
                       std::to_string(static_cast<int>(policy)) +
                       " max_edges " + std::to_string(max_edges) +
                       " theta " + std::to_string(theta));
          const FilterOptions opts = {
              .similarity = policy, .node_cap = 2, .max_edges = max_edges};
          FilterStats stats;
          const auto lazy = filter_offtree_edges(g, emb, theta, opts, &stats);
          EXPECT_EQ(lazy, reference_filter(g, emb, theta, opts));
          EXPECT_LE(stats.examined, stats.candidates);
          if (max_edges == 64) {
            most_examined = std::max(most_examined, stats.examined);
          }
        }
      }
    }
  }
  return most_examined;
}

TEST(Filter, LazySelectionMatchesFullSortReference) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(41);
  std::vector<std::pair<Graph, OffTreeEmbedding>> cases;
  // Few vertices, many chords: node-disjoint accepts at most n/2 < 64, so
  // every candidate is examined.
  cases.push_back(tied_heat_instance(100, 5000, {0.1, 0.3, 0.5, 1.0}, rng));
  cases.push_back(tied_heat_instance(2000, 3000, {0.25, 0.5, 0.75, 1.0}, rng));
  cases.push_back(tied_heat_instance(300, 2000, {0.2, 1.0, 7.5, inf}, rng));
  // Infinite heats below a finite heat_max (a malformed but legal input).
  cases.push_back(tied_heat_instance(500, 2000, {0.0, 0.4, 0.9, 1.0}, rng));
  cases.back().second.heat[7] = inf;
  cases.back().second.heat[1999] = inf;

  // The walk went well past eight times the cap (8·64) at max_edges 64.
  EXPECT_GT(expect_matches_reference(cases), std::size_t{3 * 8 * 64});
}

TEST(Filter, BucketWalkEdgeCasesMatchFullSortReference) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(43);
  std::vector<std::pair<Graph, OffTreeEmbedding>> cases;
  // All heats equal: zero key span, one bucket already in id order.
  cases.push_back(tied_heat_instance(200, 3000, {0.5}, rng));
  // The same with the edges listed in descending id order.
  cases.push_back(tied_heat_instance(200, 3000, {0.5}, rng));
  std::ranges::reverse(cases.back().second.offtree_edges);
  // Heats from the smallest subnormal to 1e300, plus +inf.
  {
    std::vector<double> heats;
    for (int k = 0; k < 3000; ++k) {
      const double x = rng.uniform();
      heats.push_back(k % 500 == 0 ? inf
                                   : std::pow(10.0, -323.0 + 623.0 * x));
    }
    heats[1] = 5e-324;
    heats[2] = 1e300;
    cases.push_back(chord_instance(400, heats, rng));
  }
  // More than 8 × 64 distinct heats inside one bucket width (1 + k·2⁻⁵⁰),
  // below a few hotter edges and above a wide spread of cooler ones.
  {
    std::vector<double> heats;
    for (int k = 0; k < 3000; ++k) {
      heats.push_back(
          k % 100 == 0
              ? (k % 200 == 0 ? 2.0 : 1e-200 * (1.0 + rng.uniform()))
              : 1.0 + static_cast<double>(rng.uniform_int(0, 4000)) *
                          std::ldexp(1.0, -50));
    }
    cases.push_back(chord_instance(150, heats, rng));
  }
  // Mixed ±0.0 heats, admitted at θ = 0 and tied with each other.
  cases.push_back(tied_heat_instance(300, 2000, {-0.0, 0.0, 0.25, 1.0}, rng));
  cases.push_back(tied_heat_instance(300, 2000, {-0.0, 0.0}, rng));
  cases.back().second.heat_max = 1.0;
  // A single candidate, alone and above many cooler edges.
  cases.push_back(chord_instance(50, {0.7}, rng));
  cases.push_back(tied_heat_instance(300, 2000, {0.1, 0.2}, rng));
  cases.back().second.heat[999] = 1.0;
  cases.back().second.heat_max = 1.0;

  (void)expect_matches_reference(cases);
}

TEST(Filter, ThetaZeroAdmitsEveryCandidateUnderInfiniteHeatMax) {
  const double inf = std::numeric_limits<double>::infinity();
  Graph g(4);
  for (Vertex v = 0; v + 1 < 4; ++v) g.add_edge(v, v + 1, 1.0);
  const EdgeId cool = g.add_edge(0, 2, 1.0);
  const EdgeId hot = g.add_edge(1, 3, 1.0);
  g.finalize();
  OffTreeEmbedding emb;
  emb.offtree_edges = {cool, hot};
  emb.heat = {2.0, inf};
  emb.heat_max = inf;
  const auto all = filter_offtree_edges(
      g, emb, 0.0, {.similarity = SimilarityPolicy::kNone});
  EXPECT_EQ(all, (std::vector<EdgeId>{hot, cool}));
  // θ > 0 keeps only heats at the infinite maximum.
  const auto top = filter_offtree_edges(
      g, emb, 0.5, {.similarity = SimilarityPolicy::kNone});
  EXPECT_EQ(top, (std::vector<EdgeId>{hot}));
}

TEST(Filter, StatsCountCandidatesAndExaminedEdges) {
  Rng rng(2);
  const auto [g, emb] = tied_heat_instance(1000, 4000, {0.5, 1.0}, rng);
  FilterStats stats;
  const auto picked = filter_offtree_edges(
      g, emb, 0.0,
      {.similarity = SimilarityPolicy::kNone, .max_edges = 10}, &stats);
  EXPECT_EQ(picked.size(), 10u);
  EXPECT_EQ(stats.candidates, 4000u);
  EXPECT_EQ(stats.examined, 10u);
  // Counts accumulate over calls.
  (void)filter_offtree_edges(g, emb, 1.0, {.max_edges = 3}, &stats);
  EXPECT_GT(stats.candidates, 4000u);
  EXPECT_GE(stats.examined, 13u);
}

TEST(Sparsify, ReachesTargetOnWeightedGrid) {
  Rng rng(8);
  const Graph g = grid_2d(24, 24, WeightModel::log_uniform(0.1, 10.0), &rng);
  SparsifyOptions opts;
  opts.sigma2 = 50.0;
  opts.seed = 9;
  const SparsifyResult res = sparsify(g, opts);
  EXPECT_TRUE(res.reached_target);
  EXPECT_LE(res.sigma2_estimate, 50.0 * 1.0001);
  EXPECT_GE(res.lambda_min, 1.0 - 1e-9);
  // Sparsifier contains the backbone and is connected.
  const Graph p = res.extract(g);
  EXPECT_TRUE(is_connected(p));
  EXPECT_GE(res.num_edges(), g.num_vertices() - 1);
  EXPECT_LT(res.num_edges(), g.num_edges());
  // Tree edges form a prefix.
  ASSERT_GE(res.edges.size(), res.tree_edges.size());
  for (std::size_t i = 0; i < res.tree_edges.size(); ++i) {
    EXPECT_EQ(res.edges[i], res.tree_edges[i]);
  }
  // No duplicate edges.
  std::set<EdgeId> uniq(res.edges.begin(), res.edges.end());
  EXPECT_EQ(uniq.size(), res.edges.size());
  EXPECT_FALSE(res.rounds.empty());
  EXPECT_GT(res.total_seconds, 0.0);
}

TEST(Sparsify, TrueConditionNumberWithinTargetOnSmallGraph) {
  // Verify against the dense pencil oracle, not just our own estimates.
  Rng rng(9);
  const Graph g = erdos_renyi_connected(48, 300, rng,
                                        WeightModel::uniform(0.5, 2.0));
  SparsifyOptions opts;
  opts.sigma2 = 30.0;
  opts.max_rounds = 40;
  const SparsifyResult res = sparsify(g, opts);
  const Vec oracle = dense_generalized_eigenvalues(
      DenseMatrix::from_csr(laplacian(g)),
      DenseMatrix::from_csr(laplacian(res.extract(g))));
  const double kappa = oracle.back() / oracle.front();
  // Estimator noise allowance: true κ within 2× of the target.
  EXPECT_LE(kappa, 2.0 * opts.sigma2);
}

TEST(Sparsify, ExactInnerSolvesNeverOverstateLambdaMax) {
  // With Cholesky inner solves the power iteration's Rayleigh quotient is a
  // true lower bound on λ_max(L_P⁺L_G). Check every round's estimate against
  // the dense pencil oracle for the sparsifier P that round estimated.
  std::vector<std::pair<const char*, Graph>> graphs;
  {
    Rng rng(31);
    graphs.emplace_back(
        "grid", grid_2d(10, 10, WeightModel::log_uniform(0.1, 10.0), &rng));
  }
  {
    Rng rng(32);
    graphs.emplace_back(
        "er", erdos_renyi_connected(60, 360, rng,
                                    WeightModel::uniform(0.5, 2.0)));
  }
  {
    Rng rng(33);
    graphs.emplace_back("ba", barabasi_albert(80, 3, rng));
  }
  {
    Rng rng(34);
    graphs.emplace_back("tri", triangulated_grid(
                                   9, 9, WeightModel::log_uniform(0.1, 10.0),
                                   &rng));
  }
  for (const auto& [name, g] : graphs) {
    Sparsifier engine(g, SparsifyOptions{}.with_sigma2(4.0).with_seed(5));
    const DenseMatrix lg = DenseMatrix::from_csr(laplacian(g));
    int factored_rounds = 0;
    while (!engine.done()) {
      engine.step();
      const SparsifyResult& res = engine.result();
      const DensifyRound& round = res.rounds.back();
      // P as estimated this round: the edges before this round's adds.
      const std::vector<EdgeId> p_edges(
          res.edges.begin(),
          res.edges.end() - static_cast<std::ptrdiff_t>(round.edges_added));
      if (p_edges.size() > res.tree_edges.size()) ++factored_rounds;
      const Vec oracle = dense_generalized_eigenvalues(
          lg, DenseMatrix::from_csr(laplacian(g.edge_subgraph(p_edges))));
      EXPECT_LE(round.lambda_max, oracle.back() * (1.0 + 1e-9))
          << name << " round " << round.round;
    }
    EXPECT_GT(factored_rounds, 0) << name;
  }
}

/// Value of one counter after a run (0 when it never registered).
std::uint64_t counter_value(const char* name) {
  std::uint64_t value = 0;
  obs::for_each_metric([&](const obs::MetricEntry& e) {
    if (std::string_view(e.name) == name) value = e.counter;
  });
  return value;
}

TEST(Sparsify, FillGuardHandsExpanderRoundsToAmg) {
  // On an expander at a tight σ² the per-round factor of L_P fills in as P
  // grows. The first round whose factor would exceed the fill budget stops
  // in the ordering, and that round and the rest of the run solve with AMG
  // instead. A mesh sparsifier's factor stays near nnz(L_P) and is always
  // built.
  obs::set_metrics_enabled(true);
  obs::reset_metrics_for_tests();
  Rng rng(41);
  const Graph expander = erdos_renyi_connected(1500, 15000, rng);
  const SparsifyResult res =
      sparsify(expander, SparsifyOptions{}.with_sigma2(10.0));
  EXPECT_EQ(counter_value("solver.cholesky.over_budget"), 1u);
  EXPECT_GT(counter_value("solver.cholesky.factors"), 0u);
  EXPECT_GT(res.num_edges(), expander.num_vertices() - 1);

  obs::reset_metrics_for_tests();
  Rng mesh_rng(42);
  const Graph mesh =
      grid_2d(40, 40, WeightModel::log_uniform(0.1, 10.0), &mesh_rng);
  (void)sparsify(mesh, SparsifyOptions{}.with_sigma2(10.0));
  EXPECT_EQ(counter_value("solver.cholesky.over_budget"), 0u);
  EXPECT_GT(counter_value("solver.cholesky.factors"), 0u);
  obs::set_metrics_enabled(false);
  obs::reset_metrics_for_tests();
}

TEST(Sparsify, SigmaControlsDensity) {
  // Smaller σ² (higher similarity) must keep at least as many edges.
  Rng rng(10);
  const Graph g = grid_2d(20, 20, WeightModel::log_uniform(0.1, 10.0), &rng);
  SparsifyOptions tight;
  tight.sigma2 = 10.0;
  SparsifyOptions loose;
  loose.sigma2 = 300.0;
  const SparsifyResult rt = sparsify(g, tight);
  const SparsifyResult rl = sparsify(g, loose);
  EXPECT_GE(rt.num_edges(), rl.num_edges());
  EXPECT_LE(rl.sigma2_estimate, 300.0 * 1.0001);
}

TEST(Sparsify, WholeGraphWhenTargetUnreachable) {
  // σ² barely above 1 on a dense graph: P should approach G and the loop
  // must terminate.
  Rng rng(11);
  const Graph g = complete_graph(12);
  SparsifyOptions opts;
  opts.sigma2 = 1.01;
  opts.max_rounds = 60;
  const SparsifyResult res = sparsify(g, opts);
  // With nearly all edges present the estimate must be ~1.
  EXPECT_GE(res.num_edges(), g.num_edges() / 2);
}

TEST(Sparsify, BackboneKindsAllWork) {
  Rng rng(12);
  const Graph g = triangulated_grid(12, 12,
                                    WeightModel::log_uniform(0.1, 10.0), &rng);
  for (BackboneKind kind : {BackboneKind::kAkpw, BackboneKind::kMaxWeight,
                            BackboneKind::kShortestPath}) {
    SparsifyOptions opts;
    opts.backbone = kind;
    opts.sigma2 = 80.0;
    const SparsifyResult res = sparsify(g, opts);
    EXPECT_TRUE(res.reached_target) << "backbone " << static_cast<int>(kind);
    EXPECT_TRUE(is_connected(res.extract(g)));
  }
}

TEST(Sparsify, AmgInnerSolverAgreesWithCholesky) {
  Rng rng(13);
  const Graph g = grid_2d(16, 16, WeightModel::uniform(0.5, 2.0), &rng);
  SparsifyOptions a;
  a.sigma2 = 40.0;
  a.inner_solver = InnerSolverKind::kCholesky;
  SparsifyOptions b = a;
  b.inner_solver = InnerSolverKind::kAmg;
  const SparsifyResult ra = sparsify(g, a);
  const SparsifyResult rb = sparsify(g, b);
  EXPECT_TRUE(ra.reached_target);
  EXPECT_TRUE(rb.reached_target);
  // Both reach the target with comparable edge budgets (within 2x).
  const double ratio = static_cast<double>(ra.num_edges()) /
                       static_cast<double>(rb.num_edges());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(Sparsify, InputValidation) {
  Rng rng(14);
  const Graph g = grid_2d(4, 4);
  SparsifyOptions opts;
  opts.sigma2 = 0.5;
  EXPECT_THROW((void)sparsify(g, opts), std::invalid_argument);
  opts = {};
  opts.power_steps = 0;
  EXPECT_THROW((void)sparsify(g, opts), std::invalid_argument);
  Graph disconnected(4);
  disconnected.add_edge(0, 1, 1.0);
  disconnected.add_edge(2, 3, 1.0);
  disconnected.finalize();
  EXPECT_THROW((void)sparsify(disconnected, {}), std::invalid_argument);
  Graph unfinalized(3);
  unfinalized.add_edge(0, 1, 1.0);
  EXPECT_THROW((void)sparsify(unfinalized, {}), std::invalid_argument);
}

TEST(Sparsify, RoundTelemetryIsConsistent) {
  Rng rng(15);
  const Graph g = grid_2d(20, 20, WeightModel::log_uniform(0.5, 2.0), &rng);
  SparsifyOptions opts;
  opts.sigma2 = 20.0;
  const SparsifyResult res = sparsify(g, opts);
  EdgeId added = 0;
  for (const DensifyRound& r : res.rounds) {
    EXPECT_GE(r.lambda_max, r.lambda_min);
    EXPECT_GE(r.lambda_min, 1.0 - 1e-12);
    EXPECT_NEAR(r.sigma2_estimate, r.lambda_max / r.lambda_min, 1e-9);
    EXPECT_GE(r.theta, 0.0);
    EXPECT_LE(r.theta, 1.0);
    added += r.edges_added;
  }
  EXPECT_EQ(added + static_cast<EdgeId>(res.tree_edges.size()),
            res.num_edges());
  // λ_max decreases monotonically (up to estimator noise) across rounds.
  for (std::size_t i = 0; i + 1 < res.rounds.size(); ++i) {
    EXPECT_LE(res.rounds[i + 1].lambda_max,
              res.rounds[i].lambda_max * 1.25);
  }
}

TEST(DensifyLoop, UsesSuppliedBackbone) {
  Rng rng(16);
  const Graph g = grid_2d(12, 12);
  const SpanningTree tree = max_weight_spanning_tree(g);
  SparsifyOptions opts;
  opts.sigma2 = 25.0;
  Sparsifier engine(g, tree, opts);
  engine.run();
  const SparsifyResult& res = engine.result();
  ASSERT_EQ(res.tree_edges.size(), static_cast<std::size_t>(143));
  for (std::size_t i = 0; i < res.tree_edges.size(); ++i) {
    EXPECT_EQ(res.tree_edges[i], tree.tree_edge_ids()[i]);
  }
  // Backbone from another graph is rejected.
  const Graph g2 = grid_2d(12, 12);
  const SpanningTree tree2 = max_weight_spanning_tree(g2);
  EXPECT_THROW((void)Sparsifier(g, tree2, opts), std::invalid_argument);
}

TEST(SpielmanSrivastava, ProducesConnectedSpectralApproximation) {
  Rng rng(17);
  const Graph g = grid_2d(16, 16, WeightModel::uniform(0.5, 2.0), &rng);
  SsOptions opts;
  opts.samples = 4000;
  opts.seed = 3;
  const SsResult res = spielman_srivastava_sparsify(g, opts);
  EXPECT_TRUE(is_connected(res.sparsifier));
  EXPECT_EQ(res.samples_drawn, 4000);
  EXPECT_LE(res.distinct_edges, g.num_edges());
  EXPECT_GT(res.distinct_edges, 0);
  // Quadratic forms agree within a loose factor on random vectors.
  const CsrMatrix lg = laplacian(g);
  const CsrMatrix lp = laplacian(res.sparsifier);
  for (int trial = 0; trial < 10; ++trial) {
    Vec x = rng.normal_vector(g.num_vertices());
    project_out_mean(x);
    const double qg = lg.quadratic(x);
    const double qp = lp.quadratic(x);
    EXPECT_GT(qp, 0.2 * qg);
    EXPECT_LT(qp, 5.0 * qg);
  }
}

TEST(SpielmanSrivastava, JlSketchModeWorks) {
  Rng rng(18);
  const Graph g = grid_2d(12, 12);
  SsOptions opts;
  opts.samples = 2500;
  opts.estimate = ResistanceEstimate::kJlSketch;
  opts.jl_projections = 16;
  const SsResult res = spielman_srivastava_sparsify(g, opts);
  EXPECT_TRUE(is_connected(res.sparsifier));
  EXPECT_GT(res.distinct_edges, g.num_vertices() - 2);
}

TEST(SpielmanSrivastava, NoControlOfSimilarity) {
  // The motivating gap: at equal edge budget, SS does not hit a requested
  // σ² — the similarity-aware result with the same edge count should have
  // bounded κ while SS's κ is whatever sampling produced. We only check
  // that the API exposes the knobs needed for the comparison bench.
  Rng rng(19);
  const Graph g = grid_2d(10, 10);
  const SparsifyResult sim = sparsify(g, {.sigma2 = 50.0});
  SsOptions opts;
  opts.samples = static_cast<EdgeId>(sim.num_edges()) * 4;
  const SsResult ss = spielman_srivastava_sparsify(g, opts);
  EXPECT_GT(ss.distinct_edges, 0);
}

TEST(Rescale, CentersPencilSpectrum) {
  Rng rng(20);
  const Graph g = grid_2d(14, 14, WeightModel::log_uniform(0.1, 10.0), &rng);
  const SparsifyResult res = sparsify(g, {.sigma2 = 100.0});
  const RescaleResult rr = rescale_sparsifier(g, res);
  EXPECT_NEAR(rr.scale,
              std::sqrt(res.lambda_min * res.lambda_max), 1e-12);
  EXPECT_NEAR(rr.sigma2_after, std::sqrt(rr.sigma2_before), 1e-9);
  EXPECT_EQ(rr.sparsifier.num_edges(), res.num_edges());
  // Weights scaled uniformly.
  const Edge& e0 = rr.sparsifier.edge(0);
  EXPECT_NEAR(e0.weight, g.edge(res.edges[0]).weight * rr.scale, 1e-12);
  // Empty result rejected.
  SparsifyResult empty;
  EXPECT_THROW((void)rescale_sparsifier(g, empty), std::invalid_argument);
}

}  // namespace
}  // namespace ssp
