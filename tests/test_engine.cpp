// Tests for the staged ssp::Sparsifier engine API: step()-driven parity
// with the one-shot wrapper, warm-started refine()/rebind(), observer
// telemetry and cancellation, option validation / named setters, and the
// enum <-> string round trips of options_io.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/edge_filter.hpp"
#include "core/options_io.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "tree/kruskal.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

Graph test_grid(Vertex side = 24, std::uint64_t seed = 31) {
  Rng rng(seed);
  return grid_2d(side, side, WeightModel::log_uniform(0.1, 10.0), &rng);
}

TEST(Engine, StepDrivenRunMatchesOneShotBitForBit) {
  const Graph g = test_grid();
  const auto opts =
      SparsifyOptions{}.with_sigma2(10.0).with_seed(7).with_max_rounds(20);

  const SparsifyResult one_shot = sparsify(g, opts);

  Sparsifier engine(g, opts);
  int steps = 0;
  while (!engine.done()) {
    engine.step();
    ++steps;
  }
  const SparsifyResult& stepped = engine.result();

  EXPECT_EQ(stepped.edges, one_shot.edges);  // bit-for-bit
  EXPECT_EQ(stepped.tree_edges, one_shot.tree_edges);
  EXPECT_EQ(stepped.rounds.size(), one_shot.rounds.size());
  EXPECT_DOUBLE_EQ(stepped.sigma2_estimate, one_shot.sigma2_estimate);
  EXPECT_DOUBLE_EQ(stepped.lambda_min, one_shot.lambda_min);
  EXPECT_DOUBLE_EQ(stepped.lambda_max, one_shot.lambda_max);
  EXPECT_EQ(stepped.reached_target, one_shot.reached_target);
  EXPECT_EQ(static_cast<std::size_t>(steps), one_shot.rounds.size());
  EXPECT_TRUE(engine.done());
  EXPECT_TRUE(is_terminal(engine.status()));
}

TEST(Engine, RunIsIdempotentOnceDone) {
  const Graph g = test_grid(16);
  Sparsifier engine(g, SparsifyOptions{}.with_sigma2(50.0));
  const StepStatus final_status = engine.run();
  const std::size_t rounds = engine.result().rounds.size();
  EXPECT_EQ(engine.run(), final_status);   // no-op
  EXPECT_EQ(engine.step(), final_status);  // no-op
  EXPECT_EQ(engine.result().rounds.size(), rounds);
}

TEST(Engine, RefineWarmStartMatchesColdRunWithFewerRounds) {
  // Incremental tightening — the GRASS-style workflow refine() is for.
  // The gap is kept small so the warm engine, already sitting just above
  // the tight target, needs only the last few small-batch rounds, while a
  // cold run must redo the whole densification ramp.
  const Graph g = test_grid(28);
  const double loose = 10.0;
  const double tight = 6.0;

  // Cold run straight at the tight target.
  const SparsifyResult cold =
      sparsify(g, SparsifyOptions{}.with_sigma2(tight).with_seed(5));

  // Warm path: reach the loose target first, then refine down.
  Sparsifier engine(g, SparsifyOptions{}.with_sigma2(loose).with_seed(5));
  engine.run();
  ASSERT_TRUE(engine.result().reached_target);
  const std::size_t rounds_before = engine.result().rounds.size();

  engine.refine(tight);
  EXPECT_FALSE(engine.done());
  engine.run();
  const SparsifyResult& warm = engine.result();
  const std::size_t refine_rounds = warm.rounds.size() - rounds_before;

  // The warm start must hit the same target...
  EXPECT_TRUE(warm.reached_target);
  EXPECT_LE(warm.sigma2_estimate, tight * 1.0 + 1e-12);
  // ...land on a sigma2 estimate comparable to the cold run's...
  EXPECT_NEAR(warm.sigma2_estimate, cold.sigma2_estimate,
              0.5 * cold.sigma2_estimate);
  // ...and do so in fewer rounds than the cold run needed from scratch.
  EXPECT_LT(refine_rounds, cold.rounds.size());
}

TEST(Engine, RefineLooseningStopsWithoutAddingEdges) {
  const Graph g = test_grid(16);
  Sparsifier engine(g, SparsifyOptions{}.with_sigma2(20.0));
  engine.run();
  const EdgeId edges_at_20 = engine.result().num_edges();

  engine.refine(500.0);  // looser target: already satisfied
  const StepStatus s = engine.run();
  EXPECT_EQ(s, StepStatus::kConverged);
  EXPECT_EQ(engine.result().num_edges(), edges_at_20);
}

/// Observer that records rounds and cancels after `cancel_after`
/// edge-adding rounds (negative = never cancel).
class RecordingObserver : public StageObserver {
 public:
  explicit RecordingObserver(int cancel_after = -1)
      : cancel_after_(cancel_after) {}

  bool on_round(const DensifyRound& round) override {
    rounds.push_back(round);
    if (cancel_after_ >= 0 && round.edges_added > 0) {
      ++adding_rounds_seen;
      if (adding_rounds_seen >= cancel_after_) return false;
    }
    return true;
  }

  std::vector<DensifyRound> rounds;
  int adding_rounds_seen = 0;

 private:
  int cancel_after_;
};

TEST(Engine, ObserverSeesEveryRound) {
  const Graph g = test_grid(20);
  Sparsifier engine(g, SparsifyOptions{}.with_sigma2(15.0).with_seed(5));
  RecordingObserver obs;
  engine.set_observer(&obs);
  engine.run();

  ASSERT_EQ(obs.rounds.size(), engine.result().rounds.size());
  for (std::size_t i = 0; i < obs.rounds.size(); ++i) {
    EXPECT_EQ(obs.rounds[i].round, engine.result().rounds[i].round);
    EXPECT_DOUBLE_EQ(obs.rounds[i].sigma2_estimate,
                     engine.result().rounds[i].sigma2_estimate);
  }
  // Stage coverage is read from the obs counters (test_obs,
  // Metrics.StageCountersCoverEveryLayer).
}

TEST(Engine, ObserverCancellationStopsAtRequestedRound) {
  const Graph g = test_grid(24);
  // A tight target so densification would run for many rounds uncancelled.
  Sparsifier engine(g, SparsifyOptions{}.with_sigma2(1.5).with_seed(9));
  RecordingObserver obs(/*cancel_after=*/2);
  engine.set_observer(&obs);
  const StepStatus s = engine.run();

  EXPECT_EQ(s, StepStatus::kCancelled);
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(obs.adding_rounds_seen, 2);
  // Exactly two edge-adding rounds were retained in the result.
  const auto& rounds = engine.result().rounds;
  EXPECT_EQ(std::count_if(rounds.begin(), rounds.end(),
                          [](const DensifyRound& r) {
                            return r.edges_added > 0;
                          }),
            2);
  // The edge set still contains the backbone plus both batches.
  EXPECT_GT(engine.result().num_edges(),
            static_cast<EdgeId>(engine.result().tree_edges.size()));
}

TEST(Engine, RefineAfterRebindTightensOnTheReweightedGraph) {
  // The warm-start chain the dynamic workflow composes: reach a loose
  // target, rebind onto a re-weighted copy with the old tree ids, then
  // refine down — the engine must keep the backbone and land on the tight
  // target against the re-weighted graph.
  const Graph g = test_grid(18, 77);
  Sparsifier engine(g, SparsifyOptions{}.with_sigma2(30.0).with_seed(3));
  engine.run();
  ASSERT_TRUE(engine.result().reached_target);
  const std::vector<EdgeId> tree_before = engine.result().tree_edges;

  Rng rng(17);
  Graph reweighted(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    reweighted.add_edge(edge.u, edge.v, edge.weight * rng.uniform(0.9, 1.1));
  }
  reweighted.finalize();
  const SpanningTree tree(reweighted, tree_before);
  engine.rebind(reweighted, tree, 3);
  engine.run();
  ASSERT_TRUE(engine.result().reached_target);
  const EdgeId edges_loose = engine.result().num_edges();

  engine.refine(8.0);
  EXPECT_FALSE(engine.done());
  engine.run();
  EXPECT_TRUE(engine.result().reached_target);
  EXPECT_LE(engine.result().sigma2_estimate, 8.0 + 1e-12);
  EXPECT_GE(engine.result().num_edges(), edges_loose);  // only densifies
  EXPECT_EQ(engine.result().tree_edges, tree_before);   // backbone survives
  EXPECT_EQ(&engine.graph(), &reweighted);
}

TEST(Engine, RebindMatchesColdExternalBackboneRunBitForBit) {
  // rebind() is the dynamic layer's warm start: same graph + backbone +
  // seed must reproduce a cold engine bound to that backbone exactly,
  // even after the engine previously ran on a different graph.
  const Graph g1 = test_grid(14, 5);
  const Graph g2 = test_grid(16, 6);
  const SpanningTree tree2 = max_weight_spanning_tree(g2);
  const auto opts = SparsifyOptions{}.with_sigma2(15.0).with_seed(23);

  Sparsifier cold(g2, tree2, SparsifyOptions(opts).with_seed(99));
  cold.run();

  Sparsifier warm(g1, opts);
  warm.run();
  warm.rebind(g2, tree2, 99);
  EXPECT_FALSE(warm.done());
  warm.run();

  EXPECT_EQ(warm.result().edges, cold.result().edges);  // bit-for-bit
  EXPECT_EQ(warm.result().tree_edges, cold.result().tree_edges);
  EXPECT_DOUBLE_EQ(warm.result().sigma2_estimate,
                   cold.result().sigma2_estimate);
  EXPECT_EQ(&warm.graph(), &g2);
}

TEST(Engine, RebindKeepOfftreePreAcceptsIntoTheSparsifier) {
  const Graph g = test_grid(12, 9);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const std::vector<EdgeId> offtree = tree.offtree_edge_ids();
  ASSERT_GE(offtree.size(), 2u);
  const std::vector<EdgeId> keep = {offtree[0], offtree[1]};

  Sparsifier engine(g, tree, SparsifyOptions{}.with_sigma2(20.0));
  engine.rebind(g, tree, 7, keep);
  // Pre-accepted edges sit right after the backbone prefix…
  ASSERT_GE(engine.result().edges.size(), tree.tree_edge_ids().size() + 2);
  EXPECT_EQ(engine.result().edges[tree.tree_edge_ids().size()], keep[0]);
  EXPECT_EQ(engine.result().edges[tree.tree_edge_ids().size() + 1], keep[1]);
  engine.run();
  // …and survive the run.
  const auto& edges = engine.result().edges;
  EXPECT_NE(std::find(edges.begin(), edges.end(), keep[0]), edges.end());
  EXPECT_TRUE(engine.result().reached_target);
}

TEST(Engine, RebindValidatesInputs) {
  const Graph g1 = test_grid(8, 1);
  const Graph g2 = test_grid(8, 2);
  const SpanningTree tree1 = max_weight_spanning_tree(g1);
  Sparsifier engine(g1, tree1, SparsifyOptions{}.with_sigma2(50.0));
  // Backbone built on a different graph than the rebind target.
  EXPECT_THROW(engine.rebind(g2, tree1, 1), std::invalid_argument);
  // keep_offtree: out of range, tree edge, duplicate.
  const std::vector<EdgeId> offtree = tree1.offtree_edge_ids();
  ASSERT_FALSE(offtree.empty());
  const std::vector<EdgeId> out_of_range = {g1.num_edges()};
  EXPECT_THROW(engine.rebind(g1, tree1, 1, out_of_range),
               std::invalid_argument);
  const std::vector<EdgeId> tree_edge = {tree1.tree_edge_ids()[0]};
  EXPECT_THROW(engine.rebind(g1, tree1, 1, tree_edge),
               std::invalid_argument);
  const std::vector<EdgeId> duplicate = {offtree[0], offtree[0]};
  EXPECT_THROW(engine.rebind(g1, tree1, 1, duplicate),
               std::invalid_argument);
  // A valid rebind still works after the rejections.
  engine.rebind(g1, tree1, 1);
  engine.run();
  EXPECT_TRUE(is_terminal(engine.status()));
}

TEST(Engine, ConstructorValidatesGraphAndOptions) {
  const Graph g = test_grid(8);
  EXPECT_THROW(Sparsifier(g, SparsifyOptions{.sigma2 = 0.5}),
               std::invalid_argument);
  Graph disconnected(4);
  disconnected.add_edge(0, 1, 1.0);
  disconnected.add_edge(2, 3, 1.0);
  disconnected.finalize();
  EXPECT_THROW(Sparsifier(disconnected, SparsifyOptions{}),
               std::invalid_argument);
  EXPECT_THROW(Sparsifier(g, SparsifyOptions{}).refine(1.0),
               std::invalid_argument);
}

TEST(Options, NamedSettersValidateEagerly) {
  EXPECT_THROW(SparsifyOptions{}.with_sigma2(1.0), std::invalid_argument);
  EXPECT_THROW(SparsifyOptions{}.with_power_steps(0), std::invalid_argument);
  EXPECT_THROW(SparsifyOptions{}.with_num_vectors(-1), std::invalid_argument);
  EXPECT_THROW(SparsifyOptions{}.with_max_rounds(0), std::invalid_argument);
  EXPECT_THROW(SparsifyOptions{}.with_max_edges_per_round(-1),
               std::invalid_argument);
  EXPECT_THROW(SparsifyOptions{}.with_node_cap(0), std::invalid_argument);
  EXPECT_THROW(SparsifyOptions{}.with_lambda_max_iterations(0),
               std::invalid_argument);

  const auto opts = SparsifyOptions{}
                        .with_sigma2(42.0)
                        .with_backbone(BackboneKind::kMaxWeight)
                        .with_power_steps(3)
                        .with_num_vectors(8)
                        .with_max_rounds(12)
                        .with_max_edges_per_round(100)
                        .with_similarity(SimilarityPolicy::kBounded)
                        .with_node_cap(4)
                        .with_lambda_max_iterations(6)
                        .with_seed(123);
  EXPECT_DOUBLE_EQ(opts.sigma2, 42.0);
  EXPECT_EQ(opts.backbone, BackboneKind::kMaxWeight);
  EXPECT_EQ(opts.power_steps, 3);
  EXPECT_EQ(opts.num_vectors, 8);
  EXPECT_EQ(opts.max_rounds, 12);
  EXPECT_EQ(opts.max_edges_per_round, 100);
  EXPECT_EQ(opts.similarity, SimilarityPolicy::kBounded);
  EXPECT_EQ(opts.node_cap, 4);
  EXPECT_EQ(opts.lambda_max_iterations, 6);
  EXPECT_EQ(opts.seed, 123u);
  EXPECT_NO_THROW(opts.validate());
}

TEST(Options, ValidateCatchesCrossFieldViolations) {
  SparsifyOptions opts;
  opts.similarity = SimilarityPolicy::kBounded;
  opts.node_cap = 0;  // direct field poke skips the setter's check...
  EXPECT_THROW(opts.validate(), std::invalid_argument);  // ...validate sees it
  opts.similarity = SimilarityPolicy::kNone;
  EXPECT_NO_THROW(opts.validate());  // node_cap unused under kNone
}

TEST(OptionsIo, EnumStringRoundTrips) {
  for (BackboneKind k : {BackboneKind::kAkpw, BackboneKind::kMaxWeight,
                         BackboneKind::kShortestPath}) {
    EXPECT_EQ(parse_backbone_kind(to_string(k)), k);
  }
  for (SimilarityPolicy p :
       {SimilarityPolicy::kNone, SimilarityPolicy::kNodeDisjoint,
        SimilarityPolicy::kBounded}) {
    EXPECT_EQ(parse_similarity_policy(to_string(p)), p);
  }
  for (CutPolicy p : {CutPolicy::kKeepAll, CutPolicy::kFilter}) {
    EXPECT_EQ(parse_cut_policy(to_string(p)), p);
  }
  EXPECT_THROW((void)parse_backbone_kind("mst"), std::invalid_argument);
  EXPECT_THROW((void)parse_similarity_policy("strict"), std::invalid_argument);
  EXPECT_THROW((void)parse_cut_policy("quotient"), std::invalid_argument);
  // Stage names are distinct and never the "?" fallback.
  for (StageKind s : {StageKind::kBackbone, StageKind::kSolverSetup,
                      StageKind::kSpectralEstimate, StageKind::kEmbedding,
                      StageKind::kFiltering, StageKind::kFinalEstimate}) {
    EXPECT_STRNE(to_string(s), "?");
  }
}

TEST(Engine, ThreadCountNeverChangesTheEdgeList) {
  // The determinism contract: SparsifyOptions::threads changes wall time
  // only. Per-probe split streams + stream-order reductions make the run
  // a pure function of (graph, options-without-threads, seed), so the
  // final edge lists and spectral estimates must agree bit-for-bit.
  const Graph g = test_grid(24, 91);
  const auto base = SparsifyOptions{}.with_sigma2(8.0).with_seed(13);

  Sparsifier e1(g, SparsifyOptions(base).with_threads(1));
  e1.run();
  Sparsifier e2(g, SparsifyOptions(base).with_threads(2));
  e2.run();
  Sparsifier e4(g, SparsifyOptions(base).with_threads(4));
  e4.run();

  EXPECT_EQ(e1.result().edges, e2.result().edges);  // bit-for-bit
  EXPECT_EQ(e1.result().edges, e4.result().edges);
  EXPECT_EQ(e1.result().tree_edges, e4.result().tree_edges);
  EXPECT_DOUBLE_EQ(e1.result().sigma2_estimate, e4.result().sigma2_estimate);
  EXPECT_DOUBLE_EQ(e1.result().lambda_min, e4.result().lambda_min);
  EXPECT_DOUBLE_EQ(e1.result().lambda_max, e4.result().lambda_max);
  ASSERT_EQ(e1.result().rounds.size(), e4.result().rounds.size());
  for (std::size_t i = 0; i < e1.result().rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(e1.result().rounds[i].theta,
                     e4.result().rounds[i].theta);
    EXPECT_EQ(e1.result().rounds[i].edges_added,
              e4.result().rounds[i].edges_added);
  }
}

TEST(Engine, WarmStartRefineParityUnderThreading) {
  // refine() must stay deterministic across thread counts too: a warm
  // engine refined at N threads lands on exactly the edge list of a warm
  // engine refined at 1 thread.
  const Graph g = test_grid(20, 63);
  const auto base = SparsifyOptions{}.with_sigma2(20.0).with_seed(29);

  Sparsifier e1(g, SparsifyOptions(base).with_threads(1));
  e1.run();
  Sparsifier e4(g, SparsifyOptions(base).with_threads(4));
  e4.run();
  ASSERT_EQ(e1.result().edges, e4.result().edges);

  e1.refine(8.0);
  e1.run();
  e4.refine(8.0);
  e4.run();
  EXPECT_EQ(e1.result().edges, e4.result().edges);  // bit-for-bit
  EXPECT_DOUBLE_EQ(e1.result().sigma2_estimate,
                   e4.result().sigma2_estimate);
  EXPECT_EQ(e1.result().reached_target, e4.result().reached_target);
  EXPECT_EQ(e1.rounds_completed(), e4.rounds_completed());
}

TEST(Filter, EqualHeatTiesBreakByAscendingEdgeId) {
  // Regression: equal-heat ties used to fall through a non-stable
  // std::sort, making the accepted set STL-implementation-dependent. The
  // comparator now breaks ties by ascending edge id.
  // Complete graph on 15 vertices: 105 tied candidates — enough that a
  // non-stable sort demonstrably permutes equal keys (libstdc++'s
  // insertion-sort threshold masks the bug on tiny inputs).
  constexpr Vertex kN = 15;
  Graph g(kN);
  for (Vertex u = 0; u < kN; ++u) {
    for (Vertex v = static_cast<Vertex>(u + 1); v < kN; ++v) {
      g.add_edge(u, v, 1.0);
    }
  }
  g.finalize();

  OffTreeEmbedding emb;
  for (EdgeId e = 0; e < g.num_edges(); ++e) emb.offtree_edges.push_back(e);
  // All heats identical — every permutation is a valid descending order,
  // so only the id tiebreak pins the result.
  emb.heat.assign(emb.offtree_edges.size(), 2.5);
  emb.heat_max = 2.5;
  emb.total_heat = 2.5 * static_cast<double>(emb.offtree_edges.size());

  const auto all = filter_offtree_edges(
      g, emb, 0.0, {.similarity = SimilarityPolicy::kNone});
  ASSERT_EQ(all.size(), emb.offtree_edges.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<EdgeId>(i));  // ascending ids
  }

  // With a max_edges cap the *lowest* ids must be the ones accepted.
  const auto capped = filter_offtree_edges(
      g, emb, 0.0, {.similarity = SimilarityPolicy::kNone, .max_edges = 4});
  EXPECT_EQ(capped, (std::vector<EdgeId>{0, 1, 2, 3}));

  // Mixed heats: higher heat first, ties in id order behind it.
  emb.heat[50] = 9.0;
  emb.heat_max = 9.0;
  const auto mixed = filter_offtree_edges(
      g, emb, 0.0, {.similarity = SimilarityPolicy::kNone, .max_edges = 3});
  EXPECT_EQ(mixed, (std::vector<EdgeId>{50, 0, 1}));
}

TEST(Engine, WorkspaceReuseKeepsEmbeddingResultsExact) {
  // Two engines on the same graph/seed — one stepped, one run — plus the
  // allocating legacy compute path via sparsify(): all three agree, which
  // pins down that the reused workspace buffers don't leak state between
  // rounds.
  const Graph g = test_grid(18, 55);
  const auto opts = SparsifyOptions{}.with_sigma2(5.0).with_seed(21);
  const SparsifyResult a = sparsify(g, opts);
  Sparsifier e1(g, opts);
  e1.run();
  Sparsifier e2(g, opts);
  while (!e2.done()) e2.step();
  EXPECT_EQ(a.edges, e1.result().edges);
  EXPECT_EQ(a.edges, e2.result().edges);
}

}  // namespace
}  // namespace ssp
