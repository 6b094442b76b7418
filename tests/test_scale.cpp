// Tests for the scale driver (src/scale/) on its partitioned routes and
// its graph/subgraph.hpp extraction primitive: local ↔ global map round
// trips, the k = 1 bit-for-bit contract against the whole-graph engine,
// determinism across thread counts, cut-policy semantics, connectivity
// preservation, the exact global κ bounded by the pieces' exact κ,
// assignment validation (singleton / empty blocks), and the
// shared pipeline: a budget run's leaves fed back as an assignment, and
// waves of one block matching one wave of all. The out-of-core routes are
// covered in test_storage.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <set>
#include <vector>

#include "core/options_io.hpp"
#include "core/rescale.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/generators/weights.hpp"
#include "graph/laplacian.hpp"
#include "graph/subgraph.hpp"
#include "la/dense_eigen.hpp"
#include "la/dense_matrix.hpp"
#include "partition/recursive_bisection.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "scale/quality.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

Graph weighted_grid(Vertex nx, Vertex ny, std::uint64_t seed) {
  Rng rng(seed);
  return grid_2d(nx, ny, WeightModel::uniform(0.5, 2.0), &rng);
}

/// Two weighted grids with no edges between them.
Graph two_component_graph() {
  const Graph a = weighted_grid(8, 8, 11);
  const Graph b = weighted_grid(6, 6, 12);
  Graph g(a.num_vertices() + b.num_vertices());
  for (const Edge& e : a.edges()) g.add_edge(e.u, e.v, e.weight);
  for (const Edge& e : b.edges()) {
    g.add_edge(e.u + a.num_vertices(), e.v + a.num_vertices(), e.weight);
  }
  g.finalize();
  return g;
}

// ---- graph/subgraph.hpp ----------------------------------------------------

TEST(Subgraph, InducedMapsRoundTrip) {
  const Graph g = weighted_grid(6, 5, 1);
  std::vector<Vertex> pick;
  for (Vertex v = 0; v < g.num_vertices(); v += 2) pick.push_back(v);
  const Subgraph sub = induced_subgraph(g, pick);

  ASSERT_EQ(sub.local_to_global.size(), pick.size());
  ASSERT_EQ(static_cast<std::size_t>(sub.graph.num_vertices()), pick.size());
  for (std::size_t i = 0; i < pick.size(); ++i) {
    EXPECT_EQ(sub.local_to_global[i], pick[i]);
  }
  // Every local edge maps to the host edge with the same endpoints/weight.
  ASSERT_EQ(static_cast<std::size_t>(sub.graph.num_edges()),
            sub.edge_to_global.size());
  for (EdgeId e = 0; e < sub.graph.num_edges(); ++e) {
    const Edge& local = sub.graph.edge(e);
    const Edge& host = g.edge(sub.edge_to_global[static_cast<std::size_t>(e)]);
    const Vertex gu = sub.local_to_global[static_cast<std::size_t>(local.u)];
    const Vertex gv = sub.local_to_global[static_cast<std::size_t>(local.v)];
    EXPECT_TRUE((gu == host.u && gv == host.v) ||
                (gu == host.v && gv == host.u));
    EXPECT_DOUBLE_EQ(local.weight, host.weight);
  }
  // Completeness: every host edge with both endpoints picked appears once.
  std::set<Vertex> picked(pick.begin(), pick.end());
  EdgeId expected = 0;
  for (const Edge& e : g.edges()) {
    if (picked.count(e.u) != 0 && picked.count(e.v) != 0) ++expected;
  }
  EXPECT_EQ(sub.graph.num_edges(), expected);
}

TEST(Subgraph, PartitionAndCutCoverEveryEdgeExactlyOnce) {
  const Graph g = weighted_grid(7, 6, 2);
  std::vector<Vertex> assignment(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    assignment[static_cast<std::size_t>(v)] = v % 3;
  }
  const auto blocks = partition_subgraphs(g, assignment, 3);
  const Subgraph cut = cut_subgraph(g, assignment);

  std::vector<int> seen(static_cast<std::size_t>(g.num_edges()), 0);
  for (const auto& block : blocks) {
    for (const EdgeId e : block.edge_to_global) {
      ++seen[static_cast<std::size_t>(e)];
    }
  }
  for (const EdgeId e : cut.edge_to_global) {
    ++seen[static_cast<std::size_t>(e)];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
  // Boundary vertices are exactly the endpoints of cut edges.
  std::set<Vertex> boundary;
  for (const EdgeId e : cut.edge_to_global) {
    boundary.insert(g.edge(e).u);
    boundary.insert(g.edge(e).v);
  }
  EXPECT_EQ(boundary.size(), cut.local_to_global.size());
}

TEST(Subgraph, Validation) {
  const Graph g = weighted_grid(4, 4, 3);
  const std::vector<Vertex> dup = {0, 1, 1};
  EXPECT_THROW((void)induced_subgraph(g, dup), std::invalid_argument);
  const std::vector<Vertex> out_of_range = {0, 99};
  EXPECT_THROW((void)induced_subgraph(g, out_of_range),
               std::invalid_argument);
  std::vector<Vertex> short_assignment(3, 0);
  EXPECT_THROW((void)partition_subgraphs(g, short_assignment, 1),
               std::invalid_argument);
  std::vector<Vertex> bad_block(static_cast<std::size_t>(g.num_vertices()),
                                0);
  bad_block[0] = 5;
  EXPECT_THROW((void)partition_subgraphs(g, bad_block, 2),
               std::invalid_argument);
}

// ---- Scale driver: partitioned routes -------------------------------------

TEST(ScaleDriver, K1MatchesWholeGraphBitForBit) {
  const Graph g = weighted_grid(14, 13, 4);
  const auto engine_opts = SparsifyOptions{}.with_sigma2(60.0).with_seed(7);
  Sparsifier whole(g, engine_opts);
  whole.run();

  HierarchicalOptions opts;
  opts.partitions = 1;
  opts.block = engine_opts;
  HierarchicalSparsifier driver(g, opts);
  const HierarchicalResult& res = driver.run();

  EXPECT_EQ(res.leaves, 1);
  EXPECT_EQ(res.edges, whole.result().edges);
  EXPECT_EQ(res.cut_edges, 0);
  ASSERT_EQ(res.leaf_stats.size(), 1u);
  EXPECT_DOUBLE_EQ(res.leaf_stats[0].sigma2_estimate,
                   whole.result().sigma2_estimate);
}

TEST(ScaleDriver, K1ViaUserAssignmentAlsoBitForBit) {
  const Graph g = weighted_grid(10, 10, 5);
  const auto engine_opts = SparsifyOptions{}.with_sigma2(80.0).with_seed(3);
  const SparsifyResult whole = sparsify(g, engine_opts);

  HierarchicalOptions opts;
  opts.block = engine_opts;
  std::vector<Vertex> assignment(static_cast<std::size_t>(g.num_vertices()),
                                 0);
  HierarchicalSparsifier driver(g, std::move(assignment), opts);
  EXPECT_EQ(driver.run().edges, whole.edges);
}

TEST(ScaleDriver, DeterministicAcrossThreadCounts) {
  const Graph g = weighted_grid(16, 12, 6);
  for (const CutPolicy policy : {CutPolicy::kKeepAll, CutPolicy::kFilter}) {
    std::vector<std::vector<EdgeId>> runs;
    for (const int threads : {1, 2, 4}) {
      HierarchicalOptions opts;
      opts.partitions = 4;
      opts.cut_policy = policy;
      opts.threads = threads;
      opts.block.sigma2 = 50.0;
      runs.push_back(hierarchical_sparsify(g, opts).edges);
    }
    EXPECT_EQ(runs[0], runs[1]) << "policy " << to_string(policy);
    EXPECT_EQ(runs[0], runs[2]) << "policy " << to_string(policy);
  }
}

TEST(ScaleDriver, ConnectivityPreservedEveryPolicy) {
  Rng rng(8);
  const Graph g = planted_partition(240, 4, 0.12, 0.01, rng);
  for (const CutPolicy policy : {CutPolicy::kKeepAll, CutPolicy::kFilter}) {
    HierarchicalOptions opts;
    opts.partitions = 4;
    opts.cut_policy = policy;
    opts.block.sigma2 = 40.0;
    const HierarchicalResult res = hierarchical_sparsify(g, opts);
    const Graph p = g.edge_subgraph(res.edges);
    EXPECT_TRUE(is_connected(p)) << "policy " << to_string(policy);
    EXPECT_GE(res.num_edges(),
              static_cast<EdgeId>(g.num_vertices()) - 1);
  }
}

TEST(ScaleDriver, CutPolicySemantics) {
  const Graph g = weighted_grid(12, 12, 9);
  HierarchicalOptions keep;
  keep.partitions = 4;
  keep.cut_policy = CutPolicy::kKeepAll;
  keep.block.sigma2 = 60.0;
  const HierarchicalResult res_keep = hierarchical_sparsify(g, keep);
  EXPECT_GT(res_keep.cut_edges, 0);
  EXPECT_EQ(res_keep.cut_edges_kept, res_keep.cut_edges);

  HierarchicalOptions filter = keep;
  filter.cut_policy = CutPolicy::kFilter;
  const HierarchicalResult res_filter = hierarchical_sparsify(g, filter);
  EXPECT_LE(res_filter.cut_edges_kept, res_filter.cut_edges);
  EXPECT_GT(res_filter.cut_edges_kept, 0);
  ASSERT_TRUE(res_filter.cut_stats.has_value());
  EXPECT_EQ(res_filter.cut_stats->block, kCutBlock);
  EXPECT_EQ(res_filter.cut_stats->edges, res_filter.cut_edges);
}

TEST(ScaleDriver, DisconnectedInputKeepsComponents) {
  const Graph g = two_component_graph();
  EXPECT_FALSE(is_connected(g));
  HierarchicalOptions opts;
  opts.cut_policy = CutPolicy::kFilter;
  opts.partitions = 4;
  opts.block.sigma2 = 50.0;
  const HierarchicalResult res = hierarchical_sparsify(g, opts);
  const Graph p = g.edge_subgraph(res.edges);
  EXPECT_EQ(connected_components(p).num_components,
            connected_components(g).num_components);
  // The whole-graph engine rejects this input outright.
  EXPECT_THROW((void)sparsify(g, opts.block), std::invalid_argument);
}

TEST(ScaleDriver, SingletonBlocksWorkEmptyBlocksThrow) {
  const Graph g = weighted_grid(6, 6, 10);
  const auto n = static_cast<std::size_t>(g.num_vertices());

  // Blocks 1 and 2 are singletons; block 0 has everything else.
  std::vector<Vertex> singleton(n, 0);
  singleton[0] = 1;
  singleton[n - 1] = 2;
  HierarchicalOptions opts;
  opts.cut_policy = CutPolicy::kFilter;
  opts.block.sigma2 = 60.0;
  HierarchicalSparsifier driver(g, singleton, opts);
  const HierarchicalResult& res = driver.run();
  EXPECT_EQ(res.leaves, 3);
  EXPECT_TRUE(is_connected(g.edge_subgraph(res.edges)));
  EXPECT_EQ(res.leaf_stats[1].vertices, 1);
  EXPECT_EQ(res.leaf_stats[1].kept_edges, 0);

  // Block id 1 of [0, 3) has no vertices: rejected.
  std::vector<Vertex> with_hole(n, 0);
  with_hole[0] = 2;
  EXPECT_THROW(HierarchicalSparsifier(g, with_hole, opts),
               std::invalid_argument);
  // Negative ids and size mismatches: rejected.
  std::vector<Vertex> negative(n, 0);
  negative[3] = -2;
  EXPECT_THROW(HierarchicalSparsifier(g, negative, opts),
               std::invalid_argument);
  EXPECT_THROW(HierarchicalSparsifier(g, std::vector<Vertex>(n - 1, 0), opts),
               std::invalid_argument);
}

TEST(ScaleDriver, TreeInputKeptVerbatim) {
  Rng rng(13);
  const Graph g = path_graph(40, WeightModel::uniform(0.5, 2.0), &rng);
  std::vector<Vertex> assignment(40, 0);
  for (Vertex v = 20; v < 40; ++v) assignment[static_cast<std::size_t>(v)] = 1;
  HierarchicalOptions opts;
  opts.cut_policy = CutPolicy::kFilter;
  HierarchicalSparsifier driver(g, assignment, opts);
  const HierarchicalResult& res = driver.run();
  // Every component is a tree (kept verbatim) and the single cut edge is a
  // one-edge tree itself: the sparsifier is the whole path.
  EXPECT_EQ(res.num_edges(), g.num_edges());
  EXPECT_EQ(res.leaf_stats[0].tree_components, 1);
  EXPECT_EQ(res.leaf_stats[1].tree_components, 1);
  EXPECT_DOUBLE_EQ(res.leaf_stats[0].sigma2_estimate, 1.0);
}

TEST(ScaleDriver, BlockStatsInIdOrderThenCutPass) {
  // Stage coverage is checked on the obs counters (test_obs,
  // Metrics.StageCountersCoverEveryLayer); the per-block records stay here.
  const Graph g = weighted_grid(12, 10, 14);
  HierarchicalOptions opts;
  opts.cut_policy = CutPolicy::kFilter;
  opts.partitions = 3;
  opts.block.sigma2 = 60.0;
  const HierarchicalResult res = hierarchical_sparsify(g, opts);

  ASSERT_EQ(res.leaf_stats.size(), static_cast<std::size_t>(res.leaves));
  for (Index b = 0; b < res.leaves; ++b) {
    const BlockStats& stats = res.leaf_stats[static_cast<std::size_t>(b)];
    EXPECT_EQ(stats.block, b);
    EXPECT_GE(stats.seconds, 0.0);
    EXPECT_GE(stats.components, 1);
  }
  ASSERT_TRUE(res.cut_stats.has_value());
  EXPECT_EQ(res.cut_stats->block, kCutBlock);
}

/// Exact κ(L_A, L_B) (dense pencil oracle) for edge sets B ⊆ A of `g`;
/// B must span every component of A.
double exact_kappa(const Graph& g, const std::vector<EdgeId>& a,
                   const std::vector<EdgeId>& b) {
  const Vec pencil = dense_generalized_eigenvalues(
      DenseMatrix::from_csr(laplacian(g.edge_subgraph(a))),
      DenseMatrix::from_csr(laplacian(g.edge_subgraph(b))));
  return pencil.back() / pencil.front();
}

TEST(ScaleDriver, GlobalConditionNumberComposesFromThePieces) {
  // Units and the cut pass sparsify disjoint edge sets of G, so
  // L_G = Σ L_Gi and L_P = Σ L_Pi: the exact global κ is bounded by the
  // exact κ of the pieces (each piece's λ_min is 1 on these graphs).
  const WeightModel w = WeightModel::log_uniform(0.1, 10.0);
  Rng rng(27);
  const std::vector<Graph> graphs = {grid_2d(11, 11, w, &rng),
                                     erdos_renyi_connected(120, 360, rng, w),
                                     barabasi_albert(128, 3, rng, w)};
  for (const Graph& g : graphs) {
    // The driver's own split (recursive bisection is deterministic).
    RecursiveBisectionOptions po;
    po.num_parts = 4;
    const RecursiveBisectionResult rb = recursive_bisection(g, po);
    // Pieces: one per unit, then the cut graph.
    const auto cut_piece = static_cast<std::size_t>(rb.parts);
    std::vector<std::vector<EdgeId>> piece_g(cut_piece + 1);
    std::vector<EdgeId> all(static_cast<std::size_t>(g.num_edges()));
    std::iota(all.begin(), all.end(), EdgeId{0});
    for (const EdgeId e : all) {
      const Vertex bu = rb.assignment[static_cast<std::size_t>(g.edge(e).u)];
      const Vertex bv = rb.assignment[static_cast<std::size_t>(g.edge(e).v)];
      piece_g[bu == bv ? static_cast<std::size_t>(bu) : cut_piece].push_back(e);
    }
    for (const CutPolicy policy : {CutPolicy::kKeepAll, CutPolicy::kFilter}) {
      HierarchicalOptions opts;
      opts.partitions = 4;
      opts.cut_policy = policy;
      opts.block.sigma2 = 10.0;
      const HierarchicalResult res = hierarchical_sparsify(g, opts);
      ASSERT_EQ(res.leaves, rb.parts);
      const std::set<EdgeId> kept(res.edges.begin(), res.edges.end());
      double worst_piece = 1.0;
      for (const std::vector<EdgeId>& edges : piece_g) {
        if (edges.empty()) continue;
        std::vector<EdgeId> piece_p;
        std::copy_if(edges.begin(), edges.end(), std::back_inserter(piece_p),
                     [&](EdgeId e) { return kept.contains(e); });
        worst_piece = std::max(worst_piece, exact_kappa(g, edges, piece_p));
      }
      EXPECT_LE(exact_kappa(g, all, res.edges), worst_piece * (1.0 + 1e-9))
          << "policy " << to_string(policy) << ", |V| " << g.num_vertices();
    }
  }
}

TEST(ScaleDriver, QualityAndRescale) {
  // Global quality and the rescale stage run on the stitched sparsifier,
  // outside the driver (as ssp_sparsify --rescale does).
  const Graph g = weighted_grid(13, 11, 15);
  HierarchicalOptions opts;
  opts.partitions = 3;
  opts.cut_policy = CutPolicy::kFilter;
  opts.block.sigma2 = 40.0;
  const HierarchicalResult res = hierarchical_sparsify(g, opts);
  const Graph p = g.edge_subgraph(res.edges);
  QualityOptions qopts;
  qopts.seed = opts.block.seed;
  const SparsifierQuality quality = estimate_sparsifier_quality(g, p, qopts);
  EXPECT_GT(quality.lambda_min, 0.0);
  EXPECT_GE(quality.lambda_max, quality.lambda_min);
  EXPECT_GE(quality.sigma2, 1.0 - 1e-9);
  SparsifyResult synth;
  synth.edges = res.edges;
  synth.lambda_min = quality.lambda_min;
  synth.lambda_max = quality.lambda_max;
  synth.sigma2_estimate = quality.sigma2;
  const RescaleResult rescaled = rescale_sparsifier(g, synth);
  EXPECT_GT(rescaled.scale, 0.0);
  EXPECT_EQ(rescaled.sparsifier.num_edges(), res.num_edges());
  EXPECT_NEAR(rescaled.sigma2_after, std::sqrt(rescaled.sigma2_before), 1e-9);
  // The stitched sparsifier satisfies the κ definition sanity bound.
  const SparsifierQuality direct = estimate_sparsifier_quality(g, p);
  EXPECT_GT(direct.sigma2, 0.0);
}

TEST(ScaleDriver, BlockStatsAccountForEveryKeptEdge) {
  const Graph g = weighted_grid(11, 9, 16);
  HierarchicalOptions opts;
  opts.partitions = 4;
  opts.cut_policy = CutPolicy::kKeepAll;
  opts.block.sigma2 = 70.0;
  const HierarchicalResult res = hierarchical_sparsify(g, opts);
  EdgeId block_kept = 0;
  for (const BlockStats& stats : res.leaf_stats) {
    block_kept += stats.kept_edges;
  }
  EXPECT_EQ(block_kept + res.cut_edges_kept, res.num_edges());
  // No duplicate edge ids in the stitched list.
  std::vector<EdgeId> sorted = res.edges;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

// ---- Scale driver: one pipeline for every split source --------------------

TEST(ScaleDriver, BudgetLeavesFedBackAsAssignmentReproduceTheRun) {
  const Graph g = weighted_grid(24, 22, 17);
  HierarchicalOptions opts;
  opts.memory_budget_bytes = 24 << 10;  // several leaves
  opts.block = SparsifyOptions{}.with_sigma2(30.0).with_seed(9);
  const HierarchicalResult budget_run = hierarchical_sparsify(g, opts);
  ASSERT_GT(budget_run.leaves, 2);

  std::vector<Vertex> leaves =
      HierarchicalSparsifier::budget_split(g, opts.memory_budget_bytes);
  EXPECT_EQ(*std::max_element(leaves.begin(), leaves.end()) + 1,
            budget_run.leaves);
  HierarchicalOptions assigned = opts;
  assigned.memory_budget_bytes = 0;
  assigned.cut_policy = CutPolicy::kKeepAll;
  HierarchicalSparsifier driver(g, std::move(leaves), assigned);
  const HierarchicalResult& res = driver.run();
  EXPECT_EQ(res.edges, budget_run.edges);
  EXPECT_EQ(res.leaves, budget_run.leaves);
  EXPECT_EQ(res.cut_edges, budget_run.cut_edges);
}

TEST(ScaleDriver, OneBlockPerWaveMatchesTheUnboundedRun) {
  const Graph g = weighted_grid(18, 16, 18);
  for (const CutPolicy policy : {CutPolicy::kKeepAll, CutPolicy::kFilter}) {
    HierarchicalOptions unbounded;
    unbounded.partitions = 4;
    unbounded.cut_policy = policy;
    unbounded.block.sigma2 = 50.0;
    const HierarchicalResult all = hierarchical_sparsify(g, unbounded);
    ASSERT_EQ(all.leaves, 4);

    // A budget below any block's estimate: each wave holds one block.
    HierarchicalOptions tight = unbounded;
    tight.memory_budget_bytes = 1;
    int waves = 0;
    HierarchicalSparsifier driver(g, tight);
    driver.set_release_hook([&waves] { ++waves; });
    const HierarchicalResult& res = driver.run();
    // Hook calls: after ordering, after split + cut scan, after each wave.
    EXPECT_EQ(waves, 2 + 4) << to_string(policy);
    EXPECT_EQ(res.edges, all.edges) << to_string(policy);
    EXPECT_EQ(res.cut_edges_kept, all.cut_edges_kept) << to_string(policy);
  }
}

}  // namespace
}  // namespace ssp
