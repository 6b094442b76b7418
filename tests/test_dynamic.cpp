// Tests for the dynamic update layer (src/dynamic/): the differential
// harness (incremental result bit-identical to a cold rebuild on the final
// graph, across every generator family and threads ∈ {1, 4}), warm-refine
// semantics, the kept canonical edge order the backbone rests on, restore
// checks, batch validation/atomicity, telemetry, and the update-journal
// format.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/options_io.hpp"
#include "core/sparsifier.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "dynamic/update_journal.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators/airfoil.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/knn.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/points.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/weights.hpp"
#include "harness.hpp"
#include "scale/quality.hpp"
#include "tree/kruskal.hpp"
#include "util/rng.hpp"
#include "util/union_find.hpp"

namespace ssp {
namespace {

using testing::make_update_script;
using testing::replay;
using testing::ReplayOutcome;
using testing::ScriptOptions;

struct Family {
  const char* name;
  Graph graph;
};

/// One small connected graph per generator family the paper evaluates.
std::vector<Family> generator_families() {
  std::vector<Family> families;
  {
    Rng rng(11);
    families.push_back(
        {"lattice", grid_2d(12, 12, WeightModel::log_uniform(0.2, 5.0), &rng)});
  }
  {
    Rng rng(12);
    families.push_back(
        {"rmat", rmat_graph(7, 4, rng, {}, WeightModel::uniform(0.5, 2.0))});
  }
  {
    Rng rng(13);
    families.push_back(
        {"community", planted_partition(160, 4, 0.08, 0.01, rng,
                                        WeightModel::uniform(0.5, 2.0))});
  }
  {
    Rng rng(14);
    const PointCloud pc = gaussian_mixture_points(150, 3, 5, 0.05, rng);
    families.push_back({"knn", knn_graph(pc, 4, KnnWeight::kInverseDistance)});
  }
  families.push_back({"airfoil", joukowski_airfoil_mesh(6, 24).graph});
  return families;
}

DynamicOptions incremental_options(std::uint64_t seed = 42) {
  DynamicOptions opts;
  opts.base = SparsifyOptions{}.with_sigma2(30.0).with_seed(seed);
  return opts;
}

// ---- The differential harness ---------------------------------------------

TEST(Differential, IncrementalIsBitIdenticalToColdRebuildAcrossFamilies) {
  // The crown-jewel contract: after every incrementally applied batch, the
  // dynamic sparsifier equals a cold rebuild on the final graph bit for
  // bit — whatever mix of churn the script exercised — at one and at four
  // worker threads. The second script copies existing weights into half
  // of its reweights and inserts, so the kept order's id tie-break is
  // exercised on every family.
  for (auto& [name, g] : generator_families()) {
    for (const double ties : {0.0, 0.5}) {
      Rng script_rng(101);
      const std::vector<UpdateBatch> script = make_update_script(
          g, script_rng, ScriptOptions{.tie_probability = ties});
      for (const int threads : {1, 4}) {
        DynamicOptions opts = incremental_options();
        opts.base.threads = threads;
        DynamicSparsifier dyn(g, opts);
        Index batch_no = 0;
        for (const UpdateBatch& batch : script) {
          dyn.apply(batch);
          ++batch_no;
          const SparsifyResult cold =
              sparsify(dyn.graph(), dyn.cold_equivalent_options());
          const auto where = [&] {
            return std::string(name) + " batch " + std::to_string(batch_no) +
                   " threads " + std::to_string(threads) + " ties " +
                   std::to_string(ties);
          };
          ASSERT_EQ(dyn.result().edges, cold.edges) << where();
          ASSERT_EQ(dyn.result().tree_edges, cold.tree_edges) << where();
          ASSERT_DOUBLE_EQ(dyn.result().sigma2_estimate, cold.sigma2_estimate)
              << where();
          ASSERT_EQ(dyn.result().reached_target, cold.reached_target)
              << where();
        }
      }
    }
  }
}

TEST(Differential, ThreadCountNeverChangesAnyBatch) {
  for (auto& [name, g] : generator_families()) {
    Rng script_rng(202);
    const std::vector<UpdateBatch> script =
        make_update_script(g, script_rng, ScriptOptions{});
    const ReplayOutcome t1 = replay(g, script, incremental_options(), 1);
    const ReplayOutcome t4 = replay(g, script, incremental_options(), 4);
    ASSERT_EQ(t1.edges_per_batch.size(), t4.edges_per_batch.size()) << name;
    for (std::size_t b = 0; b < t1.edges_per_batch.size(); ++b) {
      ASSERT_EQ(t1.edges_per_batch[b], t4.edges_per_batch[b])
          << name << " batch " << b;  // bit-for-bit
    }
    EXPECT_DOUBLE_EQ(t1.final_sigma2, t4.final_sigma2) << name;
    EXPECT_EQ(t1.final_reached, t4.final_reached) << name;
  }
}

TEST(Differential, WarmRefineStaysSpectrallyEquivalent) {
  // warm_refine trades bit-exactness for speed: the result may keep edges
  // a cold run would re-rank, but it must still hit the σ² target, and an
  // independent κ estimate must agree with the cold rebuild's quality
  // within tolerance.
  for (auto& [name, g] : generator_families()) {
    Rng script_rng(404);
    const std::vector<UpdateBatch> script =
        make_update_script(g, script_rng, ScriptOptions{});
    DynamicOptions opts = incremental_options();
    opts.warm_refine = true;
    DynamicSparsifier dyn(g, opts);
    for (const UpdateBatch& batch : script) dyn.apply(batch);
    EXPECT_TRUE(dyn.result().reached_target) << name;

    const SparsifyResult cold =
        sparsify(dyn.graph(), dyn.cold_equivalent_options());
    const SparsifierQuality warm_q = estimate_sparsifier_quality(
        dyn.graph(), dyn.result().extract(dyn.graph()));
    const SparsifierQuality cold_q =
        estimate_sparsifier_quality(dyn.graph(), cold.extract(dyn.graph()));
    // Both sparsifiers meet the target per the independent estimator (the
    // engine's internal estimate is looser than the 20-iteration one, so
    // allow modest slack) and agree with each other within a factor.
    EXPECT_LE(warm_q.sigma2, opts.base.sigma2 * 1.5) << name;
    EXPECT_LE(cold_q.sigma2, opts.base.sigma2 * 1.5) << name;
    EXPECT_LT(warm_q.sigma2, cold_q.sigma2 * 3.0 + 10.0) << name;
    // The warm result is a superset-style keeper: never sparser than the
    // backbone, and at least as dense as the tree.
    EXPECT_GE(dyn.result().num_edges(),
              static_cast<EdgeId>(dyn.result().tree_edges.size()));
  }
}

Graph small_grid(std::uint64_t seed = 5) {
  Rng rng(seed);
  return grid_2d(8, 8, WeightModel::log_uniform(0.5, 2.0), &rng);
}

TEST(Differential, AdversarialScriptsStayBitIdentical) {
  // Worst-case churn for the kept edge order: the same tree edge
  // reweighted (and pushed out of the tree and back) every batch, an edge
  // inserted then deleted across consecutive batches (id remap), and one
  // batch deleting the entire tree. Each must stay bit-identical to a cold
  // rebuild after every batch at 1 and 4 threads.
  const Graph grid = small_grid(29);
  // Deleting the whole tree needs the off-tree edges alone to span the
  // graph — true on a complete graph, never on a grid (corner vertices
  // have every incident edge in the tree).
  Graph complete(12);
  {
    Rng rng(59);
    for (Vertex u = 0; u < complete.num_vertices(); ++u) {
      for (Vertex v = u + 1; v < complete.num_vertices(); ++v) {
        complete.add_edge(u, v, rng.uniform(0.5, 2.0));
      }
    }
    complete.finalize();
  }
  const struct {
    const char* name;
    const Graph& graph;
    std::vector<UpdateBatch> script;
  } cases[] = {
      {"repeated-reweight", grid, testing::make_repeated_reweight_script(grid)},
      {"insert-then-delete", grid, testing::make_insert_delete_script(grid)},
      {"all-tree-edges", complete,
       testing::make_all_tree_edge_deletion_script(complete)},
  };
  for (const auto& [name, g, script] : cases) {
    for (const int threads : {1, 4}) {
      DynamicOptions opts = incremental_options();
      opts.base.threads = threads;
      DynamicSparsifier dyn(g, opts);
      Index batch_no = 0;
      for (const UpdateBatch& batch : script) {
        dyn.apply(batch);
        ++batch_no;
        const SparsifyResult cold =
            sparsify(dyn.graph(), dyn.cold_equivalent_options());
        ASSERT_EQ(dyn.result().edges, cold.edges)
            << name << " batch " << batch_no << " threads " << threads;
        ASSERT_EQ(dyn.result().tree_edges, cold.tree_edges)
            << name << " batch " << batch_no << " threads " << threads;
        ASSERT_DOUBLE_EQ(dyn.result().sigma2_estimate, cold.sigma2_estimate)
            << name << " batch " << batch_no << " threads " << threads;
      }
    }
  }
}

// ---- The kept edge order (the backbone's only cross-batch state) ----------

/// True when `batch` leaves `g` connected: surviving and inserted edges
/// span one component (the layer's own validation rule).
bool keeps_connected(const Graph& g, const UpdateBatch& batch) {
  std::vector<char> drop(static_cast<std::size_t>(g.num_edges()), 0);
  for (const EdgeId e : batch.remove) drop[static_cast<std::size_t>(e)] = 1;
  UnionFind uf(static_cast<Index>(g.num_vertices()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (drop[static_cast<std::size_t>(e)] != 0) continue;
    uf.unite(g.edge(e).u, g.edge(e).v);
  }
  for (const Edge& e : batch.insert) uf.unite(e.u, e.v);
  return uf.num_sets() == 1;
}

/// One random batch against `g` (finalized, connected) that leans on key
/// ties: sometimes a vertex cut loose and re-attached in the same batch
/// (every incident edge removed — a bridge delete once the vertex is a
/// leaf — plus one replacement insert), reweights that mostly copy another
/// edge's weight, an insert that ties a current tree edge, and a random
/// delete.
UpdateBatch tie_heavy_batch(const Graph& g, Rng& rng) {
  const EdgeId m = g.num_edges();
  const Vertex n = g.num_vertices();
  const auto any_edge = [&] {
    return static_cast<EdgeId>(rng.uniform_int(0, m - 1));
  };
  const auto any_vertex = [&] {
    return static_cast<Vertex>(rng.uniform_int(0, n - 1));
  };
  const auto unjoined_partner = [&](Vertex u, const UpdateBatch& batch) {
    for (;;) {
      const Vertex w = any_vertex();
      const bool pending =
          std::any_of(batch.insert.begin(), batch.insert.end(),
                      [&](const Edge& e) {
                        return std::minmax(e.u, e.v) == std::minmax(u, w);
                      });
      if (w != u && g.find_edge(u, w) == kInvalidEdge && !pending) return w;
    }
  };
  std::vector<char> touched(static_cast<std::size_t>(m), 0);
  UpdateBatch batch;

  if (rng.uniform_int(0, 2) == 0) {
    const Vertex v = any_vertex();
    UpdateBatch cut;
    for (const auto item : g.neighbors(v)) cut.remove.push_back(item.edge);
    cut.insert.push_back(
        Edge{v, unjoined_partner(v, cut), g.edge(any_edge()).weight});
    if (keeps_connected(g, cut)) {
      batch = std::move(cut);
      for (const EdgeId e : batch.remove) touched[static_cast<std::size_t>(e)] = 1;
    }
  }
  for (int i = 0; i < 3; ++i) {
    const EdgeId e = any_edge();
    if (touched[static_cast<std::size_t>(e)] != 0) continue;
    touched[static_cast<std::size_t>(e)] = 1;
    const double w = rng.uniform(0.0, 1.0) < 0.7 ? g.edge(any_edge()).weight
                                                  : rng.uniform(0.2, 5.0);
    batch.reweight.push_back(WeightUpdate{e, w});
  }
  const SpanningTree tree = max_weight_spanning_tree(g);
  const EdgeId tie = tree.tree_edge_ids()[static_cast<std::size_t>(
      rng.uniform_int(0, n - 2))];
  const Vertex u = any_vertex();
  batch.insert.push_back(Edge{u, unjoined_partner(u, batch), g.edge(tie).weight});
  const EdgeId victim = any_edge();
  if (touched[static_cast<std::size_t>(victim)] == 0) {
    batch.remove.push_back(victim);
    if (!keeps_connected(g, batch)) batch.remove.pop_back();
  }
  return batch;
}

TEST(Dynamic, BackboneIsKruskalOverAFreshSortUnderTieHeavyChurn) {
  // After every batch the backbone is exactly Kruskal's scan over a fresh
  // stable sort of the current graph by weight descending, so ties fall
  // to ascending id (same ids, same acceptance order). The layer patches
  // its kept order instead of sorting, so this pins the patch to a fresh
  // sort. Unit weights make every key a tie broken by id alone.
  for (const bool unit : {true, false}) {
    Rng rng(unit ? 71 : 72);
    const Graph g = grid_2d(
        7, 7, unit ? WeightModel::unit() : WeightModel::log_uniform(0.2, 5.0),
        &rng);
    DynamicSparsifier dyn(g, incremental_options());
    for (int b = 1; b <= 25; ++b) {
      dyn.apply(tie_heavy_batch(dyn.graph(), rng));
      const Graph& now = dyn.graph();
      std::vector<EdgeId> fresh(static_cast<std::size_t>(now.num_edges()));
      std::iota(fresh.begin(), fresh.end(), EdgeId{0});
      std::stable_sort(fresh.begin(), fresh.end(), [&now](EdgeId a, EdgeId b) {
        return now.edge(a).weight > now.edge(b).weight;
      });
      ASSERT_EQ(dyn.result().tree_edges, kruskal_scan(now, fresh))
          << (unit ? "unit" : "log") << " batch " << b;
    }
  }
}

TEST(Dynamic, RestoreRejectsANonCanonicalBackbone) {
  // The stored backbone is outside input: a spanning tree that is not the
  // canonical Kruskal tree of the graph (or is, in another order) would
  // load and then break incremental ≡ cold after the next batch.
  Rng rng(10);
  const Graph g = grid_2d(10, 10, WeightModel::log_uniform(0.2, 5.0), &rng);
  DynamicSparsifier dyn(g, incremental_options());
  dyn.reweight_edges(std::vector<WeightUpdate>{{3, 7.5}});
  const DynamicRestoreState state = dyn.restore_state();
  EXPECT_NO_THROW(DynamicSparsifier(dyn.graph(), incremental_options(), state));

  DynamicRestoreState other_tree = state;
  const SpanningTree min_tree = min_weight_spanning_tree(dyn.graph());
  other_tree.tree_edges.assign(min_tree.tree_edge_ids().begin(),
                               min_tree.tree_edge_ids().end());
  ASSERT_NE(other_tree.tree_edges, state.tree_edges);
  EXPECT_THROW(DynamicSparsifier(dyn.graph(), incremental_options(),
                                 other_tree),
               std::invalid_argument);

  DynamicRestoreState reordered = state;
  std::reverse(reordered.tree_edges.begin(), reordered.tree_edges.end());
  EXPECT_THROW(DynamicSparsifier(dyn.graph(), incremental_options(),
                                 reordered),
               std::invalid_argument);
}

// ---- DynamicSparsifier unit behavior ---------------------------------------

TEST(Dynamic, InitialBuildMatchesColdEquivalentOptions) {
  const Graph g = small_grid();
  DynamicSparsifier dyn(g, incremental_options());
  ASSERT_EQ(dyn.batches_applied(), 1);
  const SparsifyResult cold = sparsify(g, dyn.cold_equivalent_options());
  EXPECT_EQ(dyn.result().edges, cold.edges);
}

TEST(Dynamic, ValidationRejectsBadBatchesAtomically) {
  const Graph g = small_grid();
  DynamicSparsifier dyn(g, incremental_options());
  const std::vector<EdgeId> before = dyn.result().edges;
  const EdgeId m = dyn.graph().num_edges();

  UpdateBatch bad;
  bad.remove = {m};  // out of range
  EXPECT_THROW(dyn.apply(bad), std::invalid_argument);
  bad.remove = {0, 0};  // duplicate
  EXPECT_THROW(dyn.apply(bad), std::invalid_argument);
  bad.remove = {0};
  bad.reweight = {{0, 1.0}};  // removed and reweighted
  EXPECT_THROW(dyn.apply(bad), std::invalid_argument);
  bad = UpdateBatch{};
  bad.reweight = {{1, -2.0}};  // non-positive weight
  EXPECT_THROW(dyn.apply(bad), std::invalid_argument);
  bad = UpdateBatch{};
  bad.reweight = {{1, std::nan("")}};
  EXPECT_THROW(dyn.apply(bad), std::invalid_argument);
  bad = UpdateBatch{};
  bad.insert = {Edge{3, 3, 1.0}};  // self-loop
  EXPECT_THROW(dyn.apply(bad), std::invalid_argument);
  bad = UpdateBatch{};
  bad.insert = {Edge{0, g.num_vertices(), 1.0}};  // endpoint out of range
  EXPECT_THROW(dyn.apply(bad), std::invalid_argument);

  // Deleting every edge at a corner vertex disconnects it.
  bad = UpdateBatch{};
  for (const auto item : dyn.graph().neighbors(0)) {
    bad.remove.push_back(item.edge);
  }
  EXPECT_THROW(dyn.apply(bad), std::invalid_argument);

  // Nothing changed: same graph, same sparsifier, only batch 0 recorded.
  EXPECT_EQ(dyn.graph().num_edges(), m);
  EXPECT_EQ(dyn.result().edges, before);
  EXPECT_EQ(dyn.batches_applied(), 1);
}

TEST(Dynamic, BridgeSwapInOneBatchIsAccepted) {
  // Deleting a bridge while inserting its replacement in the same batch
  // must pass validation (inserts land before removals).
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 1.0);
  g.add_edge(0, 2, 0.5);  // edge 4
  g.finalize();
  DynamicSparsifier dyn(g, incremental_options());
  UpdateBatch batch;
  batch.remove = {4};
  batch.insert = {Edge{1, 3, 0.7}};
  const UpdateStats& stats = dyn.apply(batch);
  EXPECT_EQ(stats.removed, 1);
  EXPECT_EQ(stats.inserted, 1);
  EXPECT_EQ(dyn.graph().num_edges(), 5);
  EXPECT_TRUE(is_connected(dyn.graph()));
  const SparsifyResult cold =
      sparsify(dyn.graph(), dyn.cold_equivalent_options());
  EXPECT_EQ(dyn.result().edges, cold.edges);
}

TEST(Dynamic, TelemetryIsRecordedPerBatch) {
  const Graph g = small_grid(9);
  DynamicOptions opts = incremental_options();
  DynamicSparsifier dyn(g, opts);

  // Reweight an off-tree edge downward.
  const SpanningTree cold_tree = max_weight_spanning_tree(dyn.graph());
  const EdgeId offtree = cold_tree.offtree_edge_ids().front();
  const double w = dyn.graph().edge(offtree).weight;
  const UpdateStats& s1 =
      dyn.reweight_edges(std::vector<WeightUpdate>{{offtree, w * 0.5}});
  EXPECT_EQ(s1.reweighted, 1);

  // Delete a tree edge.
  const SpanningTree now = max_weight_spanning_tree(dyn.graph());
  const EdgeId tree_edge = now.tree_edge_ids()[0];
  std::vector<EdgeId> remove = {tree_edge};
  ASSERT_TRUE(testing::stays_connected(dyn.graph(), remove));
  const UpdateStats& s2 = dyn.delete_edges(remove);
  EXPECT_EQ(s2.removed, 1);
  EXPECT_EQ(s2.graph_edges, g.num_edges() - 1);

  const UpdateStats& s3 =
      dyn.insert_edges(std::vector<Edge>{Edge{0, 30, 1.3}});
  EXPECT_EQ(s3.inserted, 1);

  // Every batch still matches its cold rebuild.
  const SparsifyResult cold =
      sparsify(dyn.graph(), dyn.cold_equivalent_options());
  EXPECT_EQ(dyn.result().edges, cold.edges);
  // Stage seconds cover the five stages; totals add up.
  for (const UpdateStats& s : dyn.history()) {
    double sum = 0.0;
    for (const double v : s.stage_seconds) sum += v;
    EXPECT_NEAR(s.seconds, sum, 1e-9);
  }
}

/// Records the batch number of every on_update.
class RecordingDynamicObserver : public DynamicObserver {
 public:
  void on_update(const UpdateStats& stats) override {
    updates.push_back(stats.batch);
  }
  std::vector<Index> updates;
};

TEST(Dynamic, ObserverSeesOneUpdatePerBatch) {
  const Graph g = small_grid(21);
  // Attached at construction, the observer sees the initial build too.
  RecordingDynamicObserver obs;
  DynamicSparsifier dyn(g, incremental_options(), &obs);
  EXPECT_EQ(obs.updates, (std::vector<Index>{0}));
  dyn.insert_edges(std::vector<Edge>{Edge{0, 17, 0.9}});
  EXPECT_EQ(obs.updates, (std::vector<Index>{0, 1}));
  // Stage coverage is read from the obs counters (test_obs,
  // Metrics.StageCountersCoverEveryLayer).
}

TEST(Dynamic, OneShotWrapperMatchesManualReplay) {
  const Graph g = small_grid(33);
  Rng script_rng(55);
  const std::vector<UpdateBatch> script =
      make_update_script(g, script_rng, ScriptOptions{.batches = 2});

  const DynamicResult one_shot =
      dynamic_sparsify(g, script, incremental_options());

  DynamicSparsifier manual(g, incremental_options());
  for (const UpdateBatch& batch : script) manual.apply(batch);

  EXPECT_EQ(one_shot.result.edges, manual.result().edges);
  EXPECT_EQ(one_shot.graph.num_edges(), manual.graph().num_edges());
  EXPECT_EQ(one_shot.history.size(), manual.history().size());
}

TEST(Dynamic, TotalSecondsIsTheHistorySumAcrossARestore) {
  // The running total is the history summed in batch order, bit for bit,
  // after N batches, after a warm restore, and after batches applied to
  // the restored instance.
  const auto history_sum = [](const DynamicSparsifier& d) {
    double sum = 0.0;
    for (const UpdateStats& s : d.history()) sum += s.seconds;
    return sum;
  };
  const Graph g = small_grid(41);
  Rng script_rng(56);
  const std::vector<UpdateBatch> script =
      make_update_script(g, script_rng, ScriptOptions{.batches = 6});
  DynamicSparsifier dyn(g, incremental_options());
  EXPECT_EQ(dyn.total_seconds(), history_sum(dyn));
  for (std::size_t b = 0; b < 4; ++b) dyn.apply(script[b]);
  EXPECT_EQ(dyn.total_seconds(), history_sum(dyn));
  EXPECT_GT(dyn.total_seconds(), 0.0);

  DynamicSparsifier restored(dyn.graph(), incremental_options(),
                             dyn.restore_state());
  EXPECT_EQ(restored.total_seconds(), dyn.total_seconds());
  for (std::size_t b = 4; b < script.size(); ++b) restored.apply(script[b]);
  EXPECT_EQ(restored.history().size(), script.size() + 1);
  EXPECT_EQ(restored.total_seconds(), history_sum(restored));
}

TEST(Dynamic, OptionsValidate) {
  EXPECT_THROW(DynamicOptions{}.with_base(SparsifyOptions{.sigma2 = 0.5}),
               std::invalid_argument);
  DynamicOptions opts;
  opts.base.sigma2 = 0.5;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  EXPECT_NO_THROW(DynamicOptions{}.with_warm_refine(true).validate());
  // Enum names round-trip into telemetry strings.
  for (const DynamicStage s :
       {DynamicStage::kValidate, DynamicStage::kApplyGraph,
        DynamicStage::kBackbone, DynamicStage::kRebind,
        DynamicStage::kSparsify}) {
    EXPECT_STRNE(to_string(s), "?");
  }
}

// ---- Update journal ---------------------------------------------------------

TEST(Journal, ParsesBatchesAndRejectsMalformedInput) {
  std::istringstream in(
      "% header comment\n"
      "insert 0 5 1.5\n"
      "reweight 1 2 0.75\n"
      "commit\n"
      "# second batch\n"
      "delete 3 4\n");
  const std::vector<JournalBatch> batches = parse_update_journal(in);
  ASSERT_EQ(batches.size(), 2u);  // trailing ops form a final batch
  // Empty commits are skipped — they would shift every later batch seed.
  std::istringstream empties("commit\nreweight 0 1 2.0\ncommit\ncommit\n");
  EXPECT_EQ(parse_update_journal(empties).size(), 1u);
  ASSERT_EQ(batches[0].ops.size(), 2u);
  EXPECT_EQ(batches[0].ops[0].kind, JournalOp::Kind::kInsert);
  EXPECT_EQ(batches[0].ops[0].u, 0);
  EXPECT_EQ(batches[0].ops[0].v, 5);
  EXPECT_DOUBLE_EQ(batches[0].ops[0].weight, 1.5);
  EXPECT_EQ(batches[1].ops[0].kind, JournalOp::Kind::kDelete);

  std::istringstream bad1("frobnicate 1 2\n");
  EXPECT_THROW((void)parse_update_journal(bad1), std::runtime_error);
  std::istringstream bad2("insert 1\n");
  EXPECT_THROW((void)parse_update_journal(bad2), std::runtime_error);
  std::istringstream bad3("insert 1 2 -3\n");
  EXPECT_THROW((void)parse_update_journal(bad3), std::runtime_error);
  std::istringstream bad4("reweight 1 2\n");
  EXPECT_THROW((void)parse_update_journal(bad4), std::runtime_error);
  EXPECT_THROW((void)load_update_journal("/no/such/file.journal"),
               std::runtime_error);
}

TEST(Journal, ParseErrorsNameTheLineAndEchoTheText) {
  // Every parse failure reports the 1-based line number and the offending
  // text, so a bad line in a long journal (or a daemon request stream) is
  // findable without bisection.
  const auto expect_parse_error = [](const std::string& text,
                                     Index bad_line,
                                     const std::string& fragment) {
    std::istringstream in(text);
    try {
      (void)parse_update_journal(in);
      FAIL() << "expected JournalParseError for: " << text;
    } catch (const JournalParseError& e) {
      EXPECT_EQ(e.line(), bad_line) << e.what();
      const std::string what = e.what();
      EXPECT_NE(what.find("line " + std::to_string(bad_line)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };
  // Unknown verb (the error names line 3, not line 1).
  expect_parse_error("insert 0 1 2.0\ncommit\nfrobnicate 1 2\n", 3,
                     "frobnicate 1 2");
  // Bad arity, both directions.
  expect_parse_error("insert 1 2\n", 1, "'insert' expects 3 arguments");
  expect_parse_error("reweight 1 2\n", 1, "'reweight' expects 3 arguments");
  expect_parse_error("delete 1\n", 1, "'delete' expects 2 arguments");
  // Trailing garbage is rejected, not silently dropped.
  expect_parse_error("delete 1 2 3\n", 1, "'delete' expects 2 arguments");
  expect_parse_error("insert 0 1 2.0 surprise\n", 1, "expects 3 arguments");
  expect_parse_error("commit now\n", 1, "'commit' takes no arguments");
  // Non-numeric and out-of-domain ids.
  expect_parse_error("insert a 2 1.0\n", 1, "vertex id 'a'");
  expect_parse_error("insert -1 2 1.0\n", 1, "vertex id '-1'");
  expect_parse_error("insert 1 2x 1.0\n", 1, "vertex id '2x'");
  expect_parse_error("insert 99999999999999999999 2 1.0\n", 1,
                     "is not a non-negative integer");
  // Non-numeric, non-positive, and non-finite weights.
  expect_parse_error("insert 1 2 heavy\n", 1, "weight 'heavy'");
  expect_parse_error("insert 1 2 0\n", 1, "positive and finite");
  expect_parse_error("reweight 1 2 -3\n", 1, "positive and finite");
  expect_parse_error("insert 1 2 inf\n", 1, "positive and finite");
  expect_parse_error("insert 1 2 nan\n", 1, "positive and finite");
  // Trailing comments are NOT garbage; full-line comments parse as blank.
  std::istringstream good(
      "insert 0 1 2.0 % note\n"
      "delete 2 3 # note\n"
      "commit % done\n");
  EXPECT_EQ(parse_update_journal(good).size(), 1u);
}

TEST(Journal, FormatAndParseRoundTripBitExactly) {
  // format_journal_op is the canonical spelling: parsing it back yields
  // the identical op, weights included (17 significant digits).
  const std::vector<JournalOp> ops = {
      {JournalOp::Kind::kInsert, 0, 63, 1.25},
      {JournalOp::Kind::kInsert, 7, 8, 0.1},  // 0.1 is not exact in binary
      {JournalOp::Kind::kDelete, 3, 4, 0.0},
      {JournalOp::Kind::kReweight, 1, 2, 1.0 / 3.0},
      {JournalOp::Kind::kReweight, 10, 11, 1e-300},
  };
  for (const JournalOp& op : ops) {
    const std::string text = format_journal_op(op);
    const JournalLine parsed = parse_journal_line(text, 1);
    ASSERT_EQ(parsed.kind, JournalLine::Kind::kOp) << text;
    EXPECT_EQ(parsed.op.kind, op.kind) << text;
    EXPECT_EQ(parsed.op.u, op.u) << text;
    EXPECT_EQ(parsed.op.v, op.v) << text;
    if (op.kind != JournalOp::Kind::kDelete) {
      // Bit-exact round trip, not just approximate.
      EXPECT_EQ(parsed.op.weight, op.weight) << text;
    }
  }
  // The tokenizer drops comment tails and handles arbitrary whitespace.
  const auto tokens = tokenize_journal_line("  insert\t0  1\t 2.0  % tail");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "insert");
  EXPECT_EQ(tokens[3], "2.0");
  EXPECT_TRUE(tokenize_journal_line("   % only a comment").empty());
  EXPECT_TRUE(tokenize_journal_line("").empty());
}

TEST(Journal, WeightBoundaryValuesRoundTripOrRejectConsistently) {
  // Formatter and parser must agree on one weight domain — positive finite
  // doubles, subnormals included — on both the file and wire paths.
  // Historically the formatter happily printed -0.0 as "-0", a token the
  // parser rejects, so parse(format(op)) neither held nor failed cleanly.
  const double tiny_subnormal = std::nextafter(0.0, 1.0);  // DBL_TRUE_MIN
  ASSERT_GT(tiny_subnormal, 0.0);
  ASSERT_LT(tiny_subnormal, std::numeric_limits<double>::min());

  // In-domain: bit-exact round trip, including the subnormal range.
  for (const double w :
       {std::numeric_limits<double>::min(),        // DBL_MIN
        tiny_subnormal,                            // smallest positive
        std::numeric_limits<double>::min() / 2.0,  // mid-subnormal
        std::numeric_limits<double>::denorm_min(), 1e-300, 0.1,
        std::numeric_limits<double>::max()}) {
    const std::string text = format_journal_weight(w);
    const JournalOp op{JournalOp::Kind::kReweight, 1, 2, w};
    const JournalLine parsed = parse_journal_line(format_journal_op(op), 1);
    ASSERT_EQ(parsed.kind, JournalLine::Kind::kOp) << text;
    EXPECT_EQ(parsed.op.weight, w) << text;  // same bits
  }

  // Out-of-domain: the parser rejects the text, and the formatter refuses
  // to produce it in the first place — consistent on both sides.
  for (const double w : {-0.0, 0.0, -1.5,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)format_journal_weight(w), std::invalid_argument)
        << w;
    const JournalOp op{JournalOp::Kind::kInsert, 0, 1, w};
    EXPECT_THROW((void)format_journal_op(op), std::invalid_argument) << w;
  }
  std::istringstream neg_zero("reweight 1 2 -0\n");
  EXPECT_THROW((void)parse_update_journal(neg_zero), std::runtime_error);
  std::istringstream neg_zero_exp("reweight 1 2 -0.0e0\n");
  EXPECT_THROW((void)parse_update_journal(neg_zero_exp), std::runtime_error);
  // Subnormal text parses to the exact subnormal (strtod's ERANGE for
  // subnormals must not be treated as an error).
  std::istringstream sub("reweight 1 2 4.9406564584124654e-324\n");
  const auto batches = parse_update_journal(sub);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].ops[0].weight,
            std::numeric_limits<double>::denorm_min());
  // Delete ops never format a weight, so a zero weight field is fine.
  EXPECT_EQ(format_journal_op({JournalOp::Kind::kDelete, 3, 4, 0.0}),
            "delete 3 4");
}

TEST(Journal, ResolveErrorsNameTheSourceLine) {
  // Ops parsed from a stream carry their source line into resolve-time
  // errors; hand-built ops (line 0) omit the position but still name the
  // op itself.
  const Graph g = small_grid(3);
  std::istringstream in(
      "reweight 0 1 2.0\n"
      "delete 0 63\n"  // no such edge — line 2
      "commit\n");
  const auto batches = parse_update_journal(in);
  ASSERT_EQ(batches.size(), 1u);
  try {
    (void)resolve_journal_batch(g, batches[0]);
    FAIL() << "expected resolve error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("delete 0 63"), std::string::npos) << what;
  }
  JournalBatch synthetic;
  synthetic.ops.push_back({JournalOp::Kind::kDelete, 0, 63, 0.0});
  try {
    (void)resolve_journal_batch(g, synthetic);
    FAIL() << "expected resolve error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("line"), std::string::npos) << what;
    EXPECT_NE(what.find("delete 0 63"), std::string::npos) << what;
  }
}

TEST(Journal, ResolvesEndpointsAgainstTheLiveGraph) {
  const Graph g = small_grid(3);
  JournalBatch jb;
  jb.ops.push_back({JournalOp::Kind::kDelete, 0, 1, 0.0});
  jb.ops.push_back({JournalOp::Kind::kReweight, 0, 8, 2.5});
  jb.ops.push_back({JournalOp::Kind::kInsert, 0, 63, 1.25});
  const UpdateBatch batch = resolve_journal_batch(g, jb);
  ASSERT_EQ(batch.remove.size(), 1u);
  EXPECT_EQ(batch.remove[0], g.find_edge(0, 1));
  ASSERT_EQ(batch.reweight.size(), 1u);
  EXPECT_EQ(batch.reweight[0].edge, g.find_edge(0, 8));
  EXPECT_DOUBLE_EQ(batch.reweight[0].weight, 2.5);
  ASSERT_EQ(batch.insert.size(), 1u);

  JournalBatch missing;
  missing.ops.push_back({JournalOp::Kind::kDelete, 0, 63, 0.0});
  EXPECT_THROW((void)resolve_journal_batch(g, missing), std::runtime_error);
  JournalBatch dup_insert;
  dup_insert.ops.push_back({JournalOp::Kind::kInsert, 0, 1, 1.0});
  EXPECT_THROW((void)resolve_journal_batch(g, dup_insert),
               std::runtime_error);
  JournalBatch out_of_range;
  out_of_range.ops.push_back({JournalOp::Kind::kDelete, 0, 9999, 0.0});
  EXPECT_THROW((void)resolve_journal_batch(g, out_of_range),
               std::runtime_error);

  // End to end: resolving + applying lands on the cold-equivalent result.
  DynamicSparsifier dyn(g, incremental_options());
  dyn.apply(resolve_journal_batch(dyn.graph(), jb));
  const SparsifyResult cold =
      sparsify(dyn.graph(), dyn.cold_equivalent_options());
  EXPECT_EQ(dyn.result().edges, cold.edges);
}

TEST(Journal, SameBatchDeleteTheNInsertOfOnePairResolves) {
  // The layer supports deleting an edge and inserting its replacement in
  // one batch; the journal resolver must not reject the re-insert as a
  // duplicate of the (about to be deleted) edge.
  const Graph g = small_grid(3);
  JournalBatch jb;
  jb.ops.push_back({JournalOp::Kind::kDelete, 0, 1, 0.0});
  jb.ops.push_back({JournalOp::Kind::kInsert, 0, 1, 9.0});
  const UpdateBatch batch = resolve_journal_batch(g, jb);
  ASSERT_EQ(batch.remove.size(), 1u);
  ASSERT_EQ(batch.insert.size(), 1u);
  EXPECT_DOUBLE_EQ(batch.insert[0].weight, 9.0);

  DynamicSparsifier dyn(g, incremental_options());
  dyn.apply(batch);
  EXPECT_DOUBLE_EQ(
      dyn.graph().edge(dyn.graph().find_edge(0, 1)).weight, 9.0);
  EXPECT_EQ(dyn.result().edges,
            sparsify(dyn.graph(), dyn.cold_equivalent_options()).edges);

  // Inserting the same pair twice in one batch is still rejected.
  JournalBatch dup;
  dup.ops.push_back({JournalOp::Kind::kDelete, 0, 1, 0.0});
  dup.ops.push_back({JournalOp::Kind::kInsert, 0, 1, 1.0});
  dup.ops.push_back({JournalOp::Kind::kInsert, 1, 0, 2.0});
  EXPECT_THROW((void)resolve_journal_batch(g, dup), std::runtime_error);
}

// ---- Graph mutation primitives ---------------------------------------------

TEST(GraphMutation, RemoveEdgesCompactsAndRemaps) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);  // 0
  g.add_edge(1, 2, 2.0);  // 1
  g.add_edge(2, 3, 3.0);  // 2
  g.add_edge(3, 0, 4.0);  // 3
  g.finalize();
  const std::vector<EdgeId> remove = {1};
  const std::vector<EdgeId> remap = g.remove_edges(remove);
  ASSERT_EQ(remap.size(), 4u);
  EXPECT_EQ(remap[0], 0);
  EXPECT_EQ(remap[1], kInvalidEdge);
  EXPECT_EQ(remap[2], 1);
  EXPECT_EQ(remap[3], 2);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_FALSE(g.finalized());
  g.finalize();
  EXPECT_DOUBLE_EQ(g.edge(1).weight, 3.0);  // old edge 2

  EXPECT_THROW((void)g.remove_edges(std::vector<EdgeId>{7}),
               std::invalid_argument);
  EXPECT_THROW((void)g.remove_edges(std::vector<EdgeId>{0, 0}),
               std::invalid_argument);
  // Empty removal is a no-op that keeps the adjacency valid.
  (void)g.remove_edges({});
  EXPECT_TRUE(g.finalized());
}

TEST(GraphMutation, SetWeightPatchesAdjacencyInPlace) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.finalize();
  g.set_weight(0, 5.0);
  EXPECT_TRUE(g.finalized());  // no CSR rebuild needed
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 5.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 5.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 7.0);
  for (const auto item : g.neighbors(0)) {
    EXPECT_DOUBLE_EQ(item.weight, 5.0);
  }
  EXPECT_THROW(g.set_weight(0, 0.0), std::invalid_argument);
  EXPECT_THROW(g.set_weight(0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(g.set_weight(5, 1.0), std::invalid_argument);
}

TEST(GraphMutation, FindEdgeLocatesEitherOrientation) {
  Graph g(4);
  g.add_edge(2, 1, 1.0);
  g.add_edge(1, 3, 2.0);
  g.finalize();
  EXPECT_EQ(g.find_edge(1, 2), 0);
  EXPECT_EQ(g.find_edge(2, 1), 0);
  EXPECT_EQ(g.find_edge(3, 1), 1);
  EXPECT_EQ(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
}

}  // namespace
}  // namespace ssp
