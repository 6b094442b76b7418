#pragma once

/// \file tree_repair.hpp
/// Incrementally maintained canonical maximum-weight spanning tree — the
/// persistent backbone of the dynamic update layer (src/dynamic/).
///
/// `max_weight_spanning_tree()` (tree/kruskal.cpp) is deterministic: edges
/// are stable-sorted by weight descending, so ties resolve by ascending
/// edge id and the accepted tree is the unique maximum spanning tree under
/// the total order key(e) = (weight desc, id asc). `MaxWeightTree`
/// maintains exactly that tree across edge insertions, deletions, and
/// reweights using the classic matroid exchange steps evaluated under the
/// same total order:
///
///  * insert e            — swap out the weakest edge on the tree path
///                          between e's endpoints iff e's key beats it;
///  * reweight e          — tree-edge decrease may swap in the strongest
///                          crossing replacement; off-tree increase is an
///                          insert-style exchange; the other two directions
///                          are provably no-ops;
///  * delete tree edges   — union-find over the surviving tree edges, then
///                          a greedy strongest-crossing-edge reconnection
///                          (exact by the cut property: deletions never
///                          evict surviving tree edges). The reconnection
///                          order is canonical: per-pair bests are unique
///                          maxima under the total order, and the greedy
///                          pass consumes them stable-sorted by that same
///                          order, so the repaired tree is independent of
///                          any container iteration order.
///
/// Because the keys are unique, the maintained tree is bit-identical to a
/// cold Kruskal rebuild on the updated graph — `canonical_edge_ids()`
/// returns the ids in Kruskal acceptance order, so even the backbone-first
/// prefix of a sparsifier edge list matches a cold run exactly. This is
/// the property the dynamic layer's incremental-equals-cold determinism
/// contract rests on (see dynamic/dynamic_sparsifier.hpp).
///
/// **Change tracking.** Between `begin_batch()` calls the index notes
/// whether any tree edge was reweighted, swapped out or deleted;
/// `tree_changed()` reports it, so a batch that left the tree as it was
/// can keep its rooted backbone instead of rebuilding it.
///
/// **Costs.** The index keeps a rooted parent-pointer view of the tree
/// (root 0) patched in place by every exchange, so path exchanges are
/// O(path length) with epoch-stamped walks — no per-operation O(n) BFS.
/// Tree-edge weight decreases locate the strongest crossing edge by
/// enumerating only the *smaller* side of the cut (alternating two-sided
/// BFS) and scanning its incident graph edges. Batched deletions pay one
/// fused O(m) candidate scan (which doubles as the connectivity
/// pre-check — the greedy reconnection is simulated on scratch
/// union-find state before the tree is touched) + an O(n)
/// rooted-structure rebuild. The canonical Kruskal acceptance order is
/// maintained incrementally: hooks log the ids whose key or membership
/// changed, and `canonical_edge_ids()` folds them in with one O(n) merge
/// instead of re-sorting n−1 ids per batch. The host graph must outlive
/// the index and already reflect each mutation when the corresponding
/// `after_*` hook runs; reweight hooks additionally require the graph to
/// be finalized (they scan graph adjacency), which the dynamic layer's
/// reweights-before-inserts apply order guarantees.

#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/types.hpp"

namespace ssp {

class MaxWeightTree {
 public:
  /// Binds to `g` (must outlive the index) and adopts `tree_edges` — the
  /// edge ids of a spanning tree of `g`, typically
  /// `max_weight_spanning_tree(g).tree_edge_ids()`. The edges are trusted
  /// to form a spanning tree; canonical maximality is the caller's
  /// responsibility (adopt a Kruskal tree, then only mutate through the
  /// hooks below).
  MaxWeightTree(const Graph& g, std::span<const EdgeId> tree_edges);

  [[nodiscard]] const Graph& graph() const { return *g_; }

  /// True when graph edge `e` is currently a tree edge.
  [[nodiscard]] bool contains(EdgeId e) const {
    return in_tree_[static_cast<std::size_t>(e)] != 0;
  }

  /// Tree edge ids sorted by (weight desc, id asc) — exactly the order
  /// Kruskal accepts them in, so a SpanningTree built from this list is
  /// bit-identical to `max_weight_spanning_tree(graph())`. Maintained
  /// incrementally: the call folds the batch's membership/key changes
  /// into the cached order with one O(n) merge (plus O(k log k) for the
  /// k changed ids) and returns a view valid until the next mutating
  /// call.
  [[nodiscard]] std::span<const EdgeId> canonical_edge_ids();

  /// Exchange step after `e` was appended to the graph. Returns true when
  /// the tree changed (a path edge was swapped out for `e`).
  bool after_insert(EdgeId e);

  /// Exchange step after edge `e`'s weight changed from `old_weight` to
  /// its current value. Returns true when the tree changed. Requires a
  /// finalized graph (crossing-edge scans use graph adjacency).
  bool after_reweight(EdgeId e, double old_weight);

  /// Repairs the tree after the edges flagged in `deleted` (indexed by
  /// edge id) were marked for removal from the graph: drops deleted tree
  /// edges and reconnects the resulting components with the strongest
  /// non-deleted crossing edges (greedy by key — exact). Returns the
  /// number of replacement edges swapped in. Throws std::invalid_argument
  /// when the deletions disconnect the graph — checked before the tree is
  /// touched, so the index stays fully usable after a rejection. The
  /// graph's edge list must still contain the deleted edges (they are
  /// skipped via the mask); remove them afterwards and call
  /// `remap_ids()`.
  EdgeId after_deletions(std::span<const char> deleted);

  /// Renumbers edge ids after `Graph::remove_edges` compaction;
  /// `old_to_new` is the remap it returned. No deleted edge may still be
  /// in the tree (run `after_deletions` first).
  void remap_ids(std::span<const EdgeId> old_to_new);

  /// Starts a new change-tracking window.
  void begin_batch() { tree_changed_ = false; }

  /// True when a tree edge was reweighted, swapped out or deleted since
  /// `begin_batch()`.
  [[nodiscard]] bool tree_changed() const { return tree_changed_; }

 private:
  struct HalfEdge {
    Vertex to;
    EdgeId edge;
  };

  /// True when key(a) = (w_a, -a) beats key(b) in the canonical order.
  [[nodiscard]] bool beats(EdgeId a, EdgeId b) const;

  void link(EdgeId e);
  void unlink(EdgeId e);

  /// Logs `e` as needing a canonical-order re-merge (membership or key
  /// changed since the last canonical_edge_ids() call).
  void canon_touch(EdgeId e) { canon_touched_.push_back(e); }

  /// Rebuilds parent_/parent_eid_ by BFS from the root over adj_ (O(n)).
  void rebuild_rooted();

  /// Fresh epoch for the stamp array (monotone, never reused).
  [[nodiscard]] std::uint64_t next_epoch() { return ++epoch_; }

  /// Reverses the parent chain from `from` up to `chain_end` (an ancestor
  /// of `from`), then attaches `from` to `attach_to` via edge
  /// `attach_edge` — the O(chain) re-rooting of the subtree detached by an
  /// exchange. `chain_end`'s old parent edge must already be unlinked.
  void rehang(Vertex from, Vertex chain_end, Vertex attach_to,
              EdgeId attach_edge);

  /// True when `x`'s root path (current parent pointers) traverses tree
  /// edge `via`.
  [[nodiscard]] bool root_path_uses(Vertex x, EdgeId via) const;

  const Graph* g_;
  std::vector<char> in_tree_;               ///< by edge id
  std::vector<std::vector<HalfEdge>> adj_;  ///< tree adjacency
  // Rooted view (root 0), patched in place by every exchange.
  std::vector<Vertex> parent_;
  std::vector<EdgeId> parent_eid_;
  // Epoch-stamped scratch: a fresh epoch per walk replaces O(n) clears.
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
  // Reused BFS / exchange scratch (no per-operation allocation).
  std::vector<Vertex> queue_;
  std::vector<Vertex> queue2_;
  bool tree_changed_ = false;
  // Incrementally maintained canonical acceptance order + the ids whose
  // key or membership changed since the last merge (epoch-stamped by
  // edge id during the merge itself).
  std::vector<EdgeId> canon_;
  std::vector<EdgeId> canon_touched_;
  std::vector<std::uint64_t> edge_stamp_;
};

}  // namespace ssp
