#pragma once

// Differential update-script harness for the dynamic layer
// (src/dynamic/): generates randomized-but-valid UpdateBatch scripts over
// any host graph and provides the comparison helpers test_dynamic.cpp
// runs across generator families and thread counts.
//
// Script generation simulates the evolving graph with the same Graph
// mutation primitives DynamicSparsifier uses, so edge ids in batch k are
// valid against the state after batch k-1, deletions never disconnect the
// simulated graph (checked with a union-find pass per batch, exactly like
// the layer's own validation), and inserts never duplicate an existing
// pair. Everything is driven by an explicit ssp::Rng, so scripts are
// bit-reproducible.

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "dynamic/dynamic_sparsifier.hpp"
#include "graph/graph.hpp"
#include "tree/kruskal.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/union_find.hpp"

namespace ssp::testing {

struct ScriptOptions {
  Index batches = 3;
  Index inserts_per_batch = 3;
  Index deletes_per_batch = 3;
  Index reweights_per_batch = 4;
  double weight_lo = 0.2;
  double weight_hi = 5.0;
  /// Probability that a reweight or insert copies the weight of a random
  /// current edge instead of drawing a fresh one, so the kept edge order
  /// must break weight ties by id. 0 keeps scripts tie-free.
  double tie_probability = 0.0;
};

/// True when removing `remove` from `g` (all ids valid) keeps it connected.
inline bool stays_connected(const Graph& g, const std::vector<EdgeId>& remove) {
  std::vector<char> drop(static_cast<std::size_t>(g.num_edges()), 0);
  for (const EdgeId e : remove) drop[static_cast<std::size_t>(e)] = 1;
  UnionFind uf(static_cast<Index>(g.num_vertices()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (drop[static_cast<std::size_t>(e)] != 0) continue;
    const Edge& edge = g.edge(e);
    uf.unite(static_cast<Index>(edge.u), static_cast<Index>(edge.v));
  }
  return uf.num_sets() == 1;
}

/// Generates a valid update script over `g` (finalized, connected).
inline std::vector<UpdateBatch> make_update_script(const Graph& g, Rng& rng,
                                                   const ScriptOptions& o = {}) {
  Graph sim = g;  // evolves exactly like DynamicSparsifier's copy
  std::set<std::pair<Vertex, Vertex>> pairs;
  for (const Edge& e : sim.edges()) {
    pairs.insert(std::minmax(e.u, e.v));
  }

  std::vector<UpdateBatch> script;
  for (Index b = 0; b < o.batches; ++b) {
    UpdateBatch batch;
    const EdgeId m = sim.num_edges();
    std::set<EdgeId> touched;
    // The tie coin is only tossed when ties are on, so tie-free scripts
    // keep their exact random sequence.
    const auto draw_weight = [&] {
      if (o.tie_probability > 0.0 && rng.uniform() < o.tie_probability) {
        return sim.edge(static_cast<EdgeId>(rng.uniform_int(0, m - 1)))
            .weight;
      }
      return rng.uniform(o.weight_lo, o.weight_hi);
    };

    for (Index i = 0; i < o.reweights_per_batch && m > 0; ++i) {
      const EdgeId e = static_cast<EdgeId>(rng.uniform_int(0, m - 1));
      if (!touched.insert(e).second) continue;
      batch.reweight.push_back(WeightUpdate{e, draw_weight()});
    }

    for (Index i = 0; i < o.deletes_per_batch && m > 0; ++i) {
      const EdgeId e = static_cast<EdgeId>(rng.uniform_int(0, m - 1));
      if (touched.count(e) != 0) continue;
      batch.remove.push_back(e);
      if (stays_connected(sim, batch.remove)) {
        touched.insert(e);
      } else {
        batch.remove.pop_back();  // would disconnect — skip this candidate
      }
    }

    for (Index i = 0; i < o.inserts_per_batch; ++i) {
      const Vertex u =
          static_cast<Vertex>(rng.uniform_int(0, sim.num_vertices() - 1));
      const Vertex v =
          static_cast<Vertex>(rng.uniform_int(0, sim.num_vertices() - 1));
      if (u == v || !pairs.insert(std::minmax(u, v)).second) continue;
      batch.insert.push_back(Edge{u, v, draw_weight()});
    }

    // Mirror the layer's application order: reweight, insert, remove +
    // compact — keeping `sim`'s edge ids aligned with the live graph.
    for (const WeightUpdate& wu : batch.reweight) {
      sim.set_weight(wu.edge, wu.weight);
    }
    for (const Edge& e : batch.insert) sim.add_edge(e.u, e.v, e.weight);
    std::vector<Edge> removed_pairs;
    for (const EdgeId e : batch.remove) removed_pairs.push_back(sim.edge(e));
    sim.remove_edges(batch.remove);
    for (const Edge& e : removed_pairs) pairs.erase(std::minmax(e.u, e.v));
    sim.finalize();

    script.push_back(std::move(batch));
  }
  return script;
}

// ---- Adversarial scripts ---------------------------------------------------
//
// Deterministic worst-case batches for the kept edge order and the
// backbone: each one concentrates churn where the order patch must get
// ids and keys exactly right (the same tree edge over and over, an edge
// that exists for exactly one batch, a batch that deletes every tree edge
// at once). The differential tests replay them at several thread counts.

/// Repeatedly reweights the SAME max-weight-tree edge, alternating far
/// above and far below its original weight. Every batch changes a tree
/// edge's weight; even batches push it out of the tree and odd ones bring
/// it back.
inline std::vector<UpdateBatch> make_repeated_reweight_script(
    const Graph& g, Index batches = 6) {
  const SpanningTree t = max_weight_spanning_tree(g);
  const EdgeId victim = t.tree_edge_ids()[t.tree_edge_ids().size() / 2];
  const double w = g.edge(victim).weight;
  std::vector<UpdateBatch> script;
  for (Index b = 0; b < batches; ++b) {
    UpdateBatch batch;
    const double factor = (b % 2 == 0) ? 1e-3 : 1e3;
    batch.reweight.push_back(WeightUpdate{victim, w * factor});
    script.push_back(std::move(batch));
  }
  return script;
}

/// Inserts an edge between two far-apart vertices, then deletes exactly
/// that edge in the next batch, several times over. The inserted edge's id
/// is the tail id of its batch and a different id (post-compaction) in the
/// deleting batch — exercising the id remap of the kept order for the same
/// endpoints.
inline std::vector<UpdateBatch> make_insert_delete_script(const Graph& g,
                                                          Index cycles = 3) {
  const Vertex u = 0;
  const Vertex v = g.num_vertices() - 1;
  SSP_REQUIRE(g.find_edge(u, v) == kInvalidEdge,
              "insert_delete script: corner pair already joined");
  std::vector<UpdateBatch> script;
  const EdgeId inserted_id = g.num_edges();  // tail id, stable per cycle
  for (Index c = 0; c < cycles; ++c) {
    UpdateBatch ins;
    ins.insert.push_back(Edge{u, v, 100.0 + static_cast<double>(c)});
    script.push_back(std::move(ins));
    UpdateBatch del;
    del.remove.push_back(inserted_id);
    script.push_back(std::move(del));
  }
  return script;
}

/// One batch deleting EVERY current max-weight-tree edge (requires the
/// off-tree edges alone to keep `g` connected — true for 2D lattices and
/// most dense families). The next backbone shares no edge with the last
/// one and must still match a cold Kruskal rebuild.
inline std::vector<UpdateBatch> make_all_tree_edge_deletion_script(
    const Graph& g) {
  const SpanningTree t = max_weight_spanning_tree(g);
  UpdateBatch batch;
  batch.remove.assign(t.tree_edge_ids().begin(), t.tree_edge_ids().end());
  SSP_REQUIRE(stays_connected(g, batch.remove),
              "all_tree_edge script: off-tree edges do not span the graph");
  return {std::move(batch)};
}

/// Replays `script` through a DynamicSparsifier at the given thread count
/// and returns the driver's final per-batch sparsifier edge lists (one
/// entry per batch, initial build first).
struct ReplayOutcome {
  std::vector<std::vector<EdgeId>> edges_per_batch;
  std::vector<UpdateStats> history;
  std::vector<EdgeId> final_edges;
  double final_sigma2 = 0.0;
  bool final_reached = false;
};

inline ReplayOutcome replay(const Graph& g,
                            const std::vector<UpdateBatch>& script,
                            DynamicOptions opts, int threads) {
  opts.base.threads = threads;
  DynamicSparsifier dyn(g, opts);
  ReplayOutcome out;
  out.edges_per_batch.push_back(dyn.result().edges);
  for (const UpdateBatch& batch : script) {
    dyn.apply(batch);
    out.edges_per_batch.push_back(dyn.result().edges);
  }
  out.history = dyn.history();
  out.final_edges = dyn.result().edges;
  out.final_sigma2 = dyn.result().sigma2_estimate;
  out.final_reached = dyn.result().reached_target;
  return out;
}

}  // namespace ssp::testing
