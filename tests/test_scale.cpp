// Tests for the partition-parallel sparsification layer (src/scale/) and
// its graph/subgraph.hpp extraction primitive: local ↔ global map round
// trips, the k = 1 bit-for-bit contract against the whole-graph engine,
// determinism across thread counts, cut-policy semantics, connectivity
// preservation, and assignment validation (singleton / empty blocks).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/options_io.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/weights.hpp"
#include "graph/subgraph.hpp"
#include "scale/partitioned_sparsifier.hpp"
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

// ---- PartitionedSparsifier -------------------------------------------------

TEST(PartitionedSparsifier, K1MatchesWholeGraphBitForBit) {
  const Graph g = weighted_grid(14, 13, 4);
  const auto engine_opts = SparsifyOptions{}.with_sigma2(60.0).with_seed(7);
  Sparsifier whole(g, engine_opts);
  whole.run();

  PartitionedOptions opts;
  opts.partitions = 1;
  opts.block = engine_opts;
  PartitionedSparsifier driver(g, opts);
  const PartitionedResult& res = driver.run();

  EXPECT_EQ(res.blocks, 1);
  EXPECT_EQ(res.edges, whole.result().edges);
  EXPECT_EQ(res.cut_edges_total, 0);
  ASSERT_EQ(res.block_stats.size(), 1u);
  EXPECT_DOUBLE_EQ(res.block_stats[0].sigma2_estimate,
                   whole.result().sigma2_estimate);
}

TEST(PartitionedSparsifier, K1ViaUserAssignmentAlsoBitForBit) {
  const Graph g = weighted_grid(10, 10, 5);
  const auto engine_opts = SparsifyOptions{}.with_sigma2(80.0).with_seed(3);
  const SparsifyResult whole = sparsify(g, engine_opts);

  PartitionedOptions opts;
  opts.block = engine_opts;
  std::vector<Vertex> assignment(static_cast<std::size_t>(g.num_vertices()),
                                 0);
  PartitionedSparsifier driver(g, std::move(assignment), opts);
  EXPECT_EQ(driver.run().edges, whole.edges);
}

TEST(PartitionedSparsifier, DeterministicAcrossThreadCounts) {
  const Graph g = weighted_grid(16, 12, 6);
  for (const CutPolicy policy :
       {CutPolicy::kKeepAll, CutPolicy::kFilter, CutPolicy::kQuotient}) {
    std::vector<std::vector<EdgeId>> runs;
    for (const int threads : {1, 2, 4}) {
      PartitionedOptions opts;
      opts.partitions = 4;
      opts.cut_policy = policy;
      opts.threads = threads;
      opts.block.sigma2 = 50.0;
      runs.push_back(partitioned_sparsify(g, opts).edges);
    }
    EXPECT_EQ(runs[0], runs[1]) << "policy " << to_string(policy);
    EXPECT_EQ(runs[0], runs[2]) << "policy " << to_string(policy);
  }
}

TEST(PartitionedSparsifier, ConnectivityPreservedEveryPolicy) {
  Rng rng(8);
  const Graph g = planted_partition(240, 4, 0.12, 0.01, rng);
  for (const CutPolicy policy :
       {CutPolicy::kKeepAll, CutPolicy::kFilter, CutPolicy::kQuotient}) {
    PartitionedOptions opts;
    opts.partitions = 4;
    opts.cut_policy = policy;
    opts.block.sigma2 = 40.0;
    const PartitionedResult res = partitioned_sparsify(g, opts);
    const Graph p = res.extract(g);
    EXPECT_TRUE(is_connected(p)) << "policy " << to_string(policy);
    EXPECT_GE(res.num_edges(),
              static_cast<EdgeId>(g.num_vertices()) - 1);
  }
}

TEST(PartitionedSparsifier, CutPolicySemantics) {
  const Graph g = weighted_grid(12, 12, 9);
  PartitionedOptions keep;
  keep.partitions = 4;
  keep.cut_policy = CutPolicy::kKeepAll;
  keep.block.sigma2 = 60.0;
  const PartitionedResult res_keep = partitioned_sparsify(g, keep);
  EXPECT_GT(res_keep.cut_edges_total, 0);
  EXPECT_EQ(res_keep.cut_edges_kept, res_keep.cut_edges_total);

  PartitionedOptions filter = keep;
  filter.cut_policy = CutPolicy::kFilter;
  const PartitionedResult res_filter = partitioned_sparsify(g, filter);
  EXPECT_LE(res_filter.cut_edges_kept, res_filter.cut_edges_total);
  EXPECT_GT(res_filter.cut_edges_kept, 0);
  ASSERT_TRUE(res_filter.cut_stats.has_value());
  EXPECT_EQ(res_filter.cut_stats->block, kCutBlock);
  EXPECT_EQ(res_filter.cut_stats->edges, res_filter.cut_edges_total);

  PartitionedOptions quotient = keep;
  quotient.cut_policy = CutPolicy::kQuotient;
  const PartitionedResult res_q = partitioned_sparsify(g, quotient);
  // At most one representative per unordered block pair, plus any
  // connectivity repairs (bounded by blocks - 1 extra bridges).
  const Index k = res_q.blocks;
  EXPECT_LE(res_q.cut_edges_kept, k * (k - 1) / 2 + (k - 1));
  EXPECT_TRUE(is_connected(res_q.extract(g)));
  // Quotient keeps the fewest cut edges of the three policies.
  EXPECT_LE(res_q.cut_edges_kept, res_filter.cut_edges_kept);
}

TEST(PartitionedSparsifier, DisconnectedInputKeepsComponents) {
  const Graph g = two_component_graph();
  EXPECT_FALSE(is_connected(g));
  PartitionedOptions opts;
  opts.partitions = 4;
  opts.block.sigma2 = 50.0;
  const PartitionedResult res = partitioned_sparsify(g, opts);
  const Graph p = res.extract(g);
  EXPECT_EQ(connected_components(p).num_components,
            connected_components(g).num_components);
  // The whole-graph engine rejects this input outright.
  EXPECT_THROW((void)sparsify(g, opts.block), std::invalid_argument);
}

TEST(PartitionedSparsifier, SingletonBlocksWorkEmptyBlocksThrow) {
  const Graph g = weighted_grid(6, 6, 10);
  const auto n = static_cast<std::size_t>(g.num_vertices());

  // Blocks 1 and 2 are singletons; block 0 has everything else.
  std::vector<Vertex> singleton(n, 0);
  singleton[0] = 1;
  singleton[n - 1] = 2;
  PartitionedOptions opts;
  opts.block.sigma2 = 60.0;
  PartitionedSparsifier driver(g, singleton, opts);
  const PartitionedResult& res = driver.run();
  EXPECT_EQ(res.blocks, 3);
  EXPECT_TRUE(is_connected(res.extract(g)));
  EXPECT_EQ(res.block_stats[1].vertices, 1);
  EXPECT_EQ(res.block_stats[1].kept_edges, 0);

  // Block id 1 of [0, 3) has no vertices: rejected.
  std::vector<Vertex> with_hole(n, 0);
  with_hole[0] = 2;
  EXPECT_THROW(PartitionedSparsifier(g, with_hole, opts),
               std::invalid_argument);
  // Negative ids and size mismatches: rejected.
  std::vector<Vertex> negative(n, 0);
  negative[3] = -2;
  EXPECT_THROW(PartitionedSparsifier(g, negative, opts),
               std::invalid_argument);
  EXPECT_THROW(PartitionedSparsifier(g, std::vector<Vertex>(n - 1, 0), opts),
               std::invalid_argument);
}

TEST(PartitionedSparsifier, TreeInputKeptVerbatim) {
  Rng rng(13);
  const Graph g = path_graph(40, WeightModel::uniform(0.5, 2.0), &rng);
  std::vector<Vertex> assignment(40, 0);
  for (Vertex v = 20; v < 40; ++v) assignment[static_cast<std::size_t>(v)] = 1;
  PartitionedOptions opts;
  PartitionedSparsifier driver(g, assignment, opts);
  const PartitionedResult& res = driver.run();
  // Every component is a tree (kept verbatim) and the single cut edge is a
  // one-edge tree itself: the sparsifier is the whole path.
  EXPECT_EQ(res.num_edges(), g.num_edges());
  EXPECT_EQ(res.block_stats[0].tree_components, 1);
  EXPECT_EQ(res.block_stats[1].tree_components, 1);
  EXPECT_DOUBLE_EQ(res.block_stats[0].sigma2_estimate, 1.0);
}

TEST(PartitionedSparsifier, BlockStatsInIdOrderThenCutPass) {
  // Stage coverage is checked on the obs counters (test_obs,
  // Metrics.StageCountersCoverEveryLayer); the per-block records stay here.
  const Graph g = weighted_grid(12, 10, 14);
  PartitionedOptions opts;
  opts.partitions = 3;
  opts.block.sigma2 = 60.0;
  const PartitionedResult res = partitioned_sparsify(g, opts);

  ASSERT_EQ(res.block_stats.size(), static_cast<std::size_t>(res.blocks));
  for (Index b = 0; b < res.blocks; ++b) {
    const BlockStats& stats = res.block_stats[static_cast<std::size_t>(b)];
    EXPECT_EQ(stats.block, b);
    EXPECT_GE(stats.seconds, 0.0);
    EXPECT_GE(stats.components, 1);
  }
  ASSERT_TRUE(res.cut_stats.has_value());
  EXPECT_EQ(res.cut_stats->block, kCutBlock);
}

TEST(PartitionedSparsifier, QualityAndRescale) {
  const Graph g = weighted_grid(13, 11, 15);
  PartitionedOptions opts;
  opts.partitions = 3;
  opts.block.sigma2 = 40.0;
  opts.rescale = true;  // implies the quality estimate
  const PartitionedResult res = partitioned_sparsify(g, opts);
  ASSERT_TRUE(res.quality.has_value());
  EXPECT_GT(res.quality->lambda_min, 0.0);
  EXPECT_GE(res.quality->lambda_max, res.quality->lambda_min);
  EXPECT_GE(res.quality->sigma2, 1.0 - 1e-9);
  ASSERT_TRUE(res.rescaled.has_value());
  EXPECT_GT(res.rescaled->scale, 0.0);
  EXPECT_EQ(res.rescaled->sparsifier.num_edges(), res.num_edges());
  EXPECT_NEAR(res.rescaled->sigma2_after,
              std::sqrt(res.rescaled->sigma2_before), 1e-9);
  // The stitched sparsifier satisfies the κ definition sanity bound.
  const SparsifierQuality direct =
      estimate_sparsifier_quality(g, res.extract(g));
  EXPECT_GT(direct.sigma2, 0.0);
}

TEST(PartitionedSparsifier, BlockStatsAccountForEveryKeptEdge) {
  const Graph g = weighted_grid(11, 9, 16);
  PartitionedOptions opts;
  opts.partitions = 4;
  opts.cut_policy = CutPolicy::kKeepAll;
  opts.block.sigma2 = 70.0;
  const PartitionedResult res = partitioned_sparsify(g, opts);
  EdgeId block_kept = 0;
  for (const BlockStats& stats : res.block_stats) {
    block_kept += stats.kept_edges;
  }
  EXPECT_EQ(block_kept + res.cut_edges_kept, res.num_edges());
  // No duplicate edge ids in the stitched list.
  std::vector<EdgeId> sorted = res.edges;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

}  // namespace
}  // namespace ssp
