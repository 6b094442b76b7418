#include "tree/tree_repair.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/assert.hpp"
#include "util/union_find.hpp"

namespace ssp {

MaxWeightTree::MaxWeightTree(const Graph& g, std::span<const EdgeId> tree_edges)
    : g_(&g),
      in_tree_(static_cast<std::size_t>(g.num_edges()), 0),
      adj_(static_cast<std::size_t>(g.num_vertices())) {
  SSP_REQUIRE(static_cast<Vertex>(tree_edges.size()) == g.num_vertices() - 1,
              "MaxWeightTree: need exactly n-1 tree edges");
  for (const EdgeId e : tree_edges) {
    SSP_REQUIRE(e >= 0 && e < g.num_edges(),
                "MaxWeightTree: tree edge id out of range");
    link(e);
  }
  queue_.reserve(static_cast<std::size_t>(g.num_vertices()));
  queue2_.reserve(static_cast<std::size_t>(g.num_vertices()));
  stamp_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  rebuild_rooted();

  // Seed the canonical acceptance order with one flat-key sort; every
  // later batch patches it via the canon_touched_ merge instead.
  std::vector<std::pair<double, EdgeId>> keys;
  keys.reserve(tree_edges.size());
  for (const EdgeId e : tree_edges) {
    keys.emplace_back(g.edge(e).weight, e);
  }
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  canon_.clear();
  canon_.reserve(keys.size());
  for (const auto& [w, e] : keys) canon_.push_back(e);
  canon_touched_.clear();
  edge_stamp_.assign(static_cast<std::size_t>(g.num_edges()), 0);
}

bool MaxWeightTree::beats(EdgeId a, EdgeId b) const {
  const double wa = g_->edge(a).weight;
  const double wb = g_->edge(b).weight;
  return wa != wb ? wa > wb : a < b;
}

void MaxWeightTree::link(EdgeId e) {
  SSP_ASSERT(in_tree_[static_cast<std::size_t>(e)] == 0,
             "MaxWeightTree: edge already linked");
  const Edge& edge = g_->edge(e);
  in_tree_[static_cast<std::size_t>(e)] = 1;
  adj_[static_cast<std::size_t>(edge.u)].push_back({edge.v, e});
  adj_[static_cast<std::size_t>(edge.v)].push_back({edge.u, e});
  canon_touch(e);
}

void MaxWeightTree::unlink(EdgeId e) {
  SSP_ASSERT(in_tree_[static_cast<std::size_t>(e)] != 0,
             "MaxWeightTree: edge not linked");
  const Edge& edge = g_->edge(e);
  in_tree_[static_cast<std::size_t>(e)] = 0;
  canon_touch(e);
  for (const Vertex end : {edge.u, edge.v}) {
    auto& list = adj_[static_cast<std::size_t>(end)];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].edge == e) {
        list[i] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

void MaxWeightTree::rebuild_rooted() {
  const auto n = static_cast<std::size_t>(g_->num_vertices());
  parent_.assign(n, kInvalidVertex);
  parent_eid_.assign(n, kInvalidEdge);
  const std::uint64_t ep = next_epoch();
  queue_.clear();
  queue_.push_back(0);
  stamp_[0] = ep;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const Vertex x = queue_[head];
    for (const HalfEdge& h : adj_[static_cast<std::size_t>(x)]) {
      if (stamp_[static_cast<std::size_t>(h.to)] == ep) continue;
      stamp_[static_cast<std::size_t>(h.to)] = ep;
      parent_[static_cast<std::size_t>(h.to)] = x;
      parent_eid_[static_cast<std::size_t>(h.to)] = h.edge;
      queue_.push_back(h.to);
    }
  }
  SSP_ASSERT(queue_.size() == n, "MaxWeightTree: tree does not span the graph");
}

void MaxWeightTree::rehang(Vertex from, Vertex chain_end, Vertex attach_to,
                           EdgeId attach_edge) {
  Vertex cur = from;
  Vertex new_parent = attach_to;
  EdgeId new_eid = attach_edge;
  // Reverse the parent chain from → … → chain_end in one pass: `from`
  // hangs off attach_to via attach_edge, every chain vertex hangs off its
  // old child via the edge that used to point the other way, and
  // chain_end's old parent edge (the one the exchange removed) drops out.
  while (true) {
    const Vertex old_parent = parent_[static_cast<std::size_t>(cur)];
    const EdgeId old_eid = parent_eid_[static_cast<std::size_t>(cur)];
    parent_[static_cast<std::size_t>(cur)] = new_parent;
    parent_eid_[static_cast<std::size_t>(cur)] = new_eid;
    if (cur == chain_end) break;
    new_parent = cur;
    new_eid = old_eid;
    cur = old_parent;
  }
}

bool MaxWeightTree::root_path_uses(Vertex x, EdgeId via) const {
  for (Vertex c = x; parent_[static_cast<std::size_t>(c)] != kInvalidVertex;
       c = parent_[static_cast<std::size_t>(c)]) {
    if (parent_eid_[static_cast<std::size_t>(c)] == via) return true;
  }
  return false;
}

bool MaxWeightTree::after_insert(EdgeId e) {
  SSP_REQUIRE(e >= 0 && e < g_->num_edges(),
              "MaxWeightTree: edge id out of range");
  in_tree_.resize(static_cast<std::size_t>(g_->num_edges()), 0);
  const Edge& edge = g_->edge(e);

  // Locate the tree path u⇝v in O(path length): stamp u's root path with
  // a fresh epoch, then walk v upward until the first stamped vertex (the
  // meet — u's path above it is untouched by the exchange).
  const std::uint64_t ep = next_epoch();
  for (Vertex x = edge.u;;) {
    stamp_[static_cast<std::size_t>(x)] = ep;
    const Vertex p = parent_[static_cast<std::size_t>(x)];
    if (p == kInvalidVertex) break;
    x = p;
  }
  Vertex meet = edge.v;
  while (stamp_[static_cast<std::size_t>(meet)] != ep) {
    const Vertex p = parent_[static_cast<std::size_t>(meet)];
    SSP_ASSERT(p != kInvalidVertex,
               "MaxWeightTree: endpoints not tree-connected");
    meet = p;
  }

  // Weakest edge on the path, remembering which leg holds it and its
  // child-side vertex (the rehang chain end).
  EdgeId weakest = kInvalidEdge;
  Vertex weakest_child = kInvalidVertex;
  bool weakest_on_u_leg = false;
  for (Vertex x = edge.u; x != meet;
       x = parent_[static_cast<std::size_t>(x)]) {
    const EdgeId pe = parent_eid_[static_cast<std::size_t>(x)];
    if (weakest == kInvalidEdge || beats(weakest, pe)) {
      weakest = pe;
      weakest_child = x;
      weakest_on_u_leg = true;
    }
  }
  for (Vertex x = edge.v; x != meet;
       x = parent_[static_cast<std::size_t>(x)]) {
    const EdgeId pe = parent_eid_[static_cast<std::size_t>(x)];
    if (weakest == kInvalidEdge || beats(weakest, pe)) {
      weakest = pe;
      weakest_child = x;
      weakest_on_u_leg = false;
    }
  }
  SSP_ASSERT(weakest != kInvalidEdge,
             "MaxWeightTree: insert endpoints coincide");
  if (!beats(e, weakest)) return false;

  tree_changed_ = true;
  unlink(weakest);
  link(e);
  // The component cut off by removing `weakest` contains the endpoint of
  // `e` on the same leg; re-root it onto the other endpoint via `e`.
  const Vertex start = weakest_on_u_leg ? edge.u : edge.v;
  const Vertex attach = weakest_on_u_leg ? edge.v : edge.u;
  rehang(start, weakest_child, attach, e);
  return true;
}

bool MaxWeightTree::after_reweight(EdgeId e, double old_weight) {
  SSP_REQUIRE(e >= 0 && e < g_->num_edges(),
              "MaxWeightTree: edge id out of range");
  const Edge& edge = g_->edge(e);
  if (contains(e)) {
    // A reweighted tree edge changes the tree's weights whether or not
    // an exchange follows. The new key also moves it in the canonical
    // order.
    tree_changed_ = true;
    canon_touch(e);
    // A tree edge that got heavier only gets safer; a lighter one may be
    // displaced by the strongest off-tree edge across its cut.
    if (edge.weight >= old_weight) return false;
    SSP_REQUIRE(g_->finalized(),
                "MaxWeightTree: after_reweight requires a finalized graph");

    // Enumerate the smaller side of the cut T − e with an alternating
    // two-sided BFS (cost 2·|smaller side| tree work), then find the
    // strongest crossing edge by scanning only that side's incident graph
    // edges. An edge crosses iff its far endpoint is not stamped with the
    // side's epoch — the smaller side is fully enumerated, so the test is
    // exact even though the larger side's stamps are partial.
    const std::uint64_t eu = next_epoch();
    const std::uint64_t ev = next_epoch();
    queue_.clear();
    queue2_.clear();
    stamp_[static_cast<std::size_t>(edge.u)] = eu;
    queue_.push_back(edge.u);
    stamp_[static_cast<std::size_t>(edge.v)] = ev;
    queue2_.push_back(edge.v);
    std::size_t hu = 0;
    std::size_t hv = 0;
    bool u_smaller = false;
    while (true) {
      if (hu == queue_.size()) {
        u_smaller = true;
        break;
      }
      {
        const Vertex x = queue_[hu++];
        for (const HalfEdge& h : adj_[static_cast<std::size_t>(x)]) {
          if (h.edge == e || stamp_[static_cast<std::size_t>(h.to)] == eu) {
            continue;
          }
          stamp_[static_cast<std::size_t>(h.to)] = eu;
          queue_.push_back(h.to);
        }
      }
      if (hv == queue2_.size()) {
        u_smaller = false;
        break;
      }
      {
        const Vertex x = queue2_[hv++];
        for (const HalfEdge& h : adj_[static_cast<std::size_t>(x)]) {
          if (h.edge == e || stamp_[static_cast<std::size_t>(h.to)] == ev) {
            continue;
          }
          stamp_[static_cast<std::size_t>(h.to)] = ev;
          queue2_.push_back(h.to);
        }
      }
    }
    const std::vector<Vertex>& side = u_smaller ? queue_ : queue2_;
    const std::uint64_t side_epoch = u_smaller ? eu : ev;
    EdgeId best = kInvalidEdge;
    for (const Vertex x : side) {
      for (const auto item : g_->neighbors(x)) {
        const EdgeId y = item.edge;
        if (y == e || contains(y)) continue;
        if (stamp_[static_cast<std::size_t>(item.neighbor)] == side_epoch) {
          continue;  // both endpoints inside the side
        }
        if (best == kInvalidEdge || beats(y, best)) best = y;
      }
    }
    if (best == kInvalidEdge || !beats(best, e)) return false;

    // Re-root the component below e (its child endpoint's side) onto the
    // replacement. The replacement endpoint inside that component is the
    // one whose root path still traverses e.
    const Vertex child =
        parent_eid_[static_cast<std::size_t>(edge.u)] == e ? edge.u : edge.v;
    SSP_ASSERT(parent_eid_[static_cast<std::size_t>(child)] == e,
               "MaxWeightTree: tree edge not in rooted view");
    const Edge& rep = g_->edge(best);
    const bool rep_u_below = root_path_uses(rep.u, e);
    SSP_ASSERT(rep_u_below || root_path_uses(rep.v, e),
               "MaxWeightTree: replacement does not cross the cut");
    const Vertex start = rep_u_below ? rep.u : rep.v;
    const Vertex attach = rep_u_below ? rep.v : rep.u;
    unlink(e);
    link(best);
    rehang(start, child, attach, best);
    return true;
  }
  // An off-tree edge that got lighter stays out; a heavier one is exactly
  // an insertion exchange.
  if (edge.weight <= old_weight) return false;
  return after_insert(e);
}

EdgeId MaxWeightTree::after_deletions(std::span<const char> deleted) {
  SSP_REQUIRE(static_cast<EdgeId>(deleted.size()) == g_->num_edges(),
              "MaxWeightTree: deletion mask must cover every edge id");
  std::vector<EdgeId> dropped;
  for (EdgeId e = 0; e < g_->num_edges(); ++e) {
    if (deleted[static_cast<std::size_t>(e)] != 0 && contains(e)) {
      dropped.push_back(e);
    }
  }
  if (dropped.empty()) return 0;

  // Surviving tree edges stay in the canonical tree (each is the
  // strongest edge across its own cut, and deletions only remove
  // competitors), so reconnecting the contracted components greedily by
  // key reproduces the cold Kruskal tree exactly. Components come from
  // one O(n) union over the surviving tree adjacency — not an O(m)
  // sweep of the graph.
  UnionFind uf(static_cast<Index>(g_->num_vertices()));
  for (std::size_t v = 0; v < adj_.size(); ++v) {
    for (const HalfEdge& h : adj_[v]) {
      if (static_cast<Vertex>(v) >= h.to) continue;  // each edge once
      if (deleted[static_cast<std::size_t>(h.edge)] != 0) continue;
      uf.unite(static_cast<Index>(v), static_cast<Index>(h.to));
    }
  }
  // Strongest candidate per component pair (pairs only merge during the
  // greedy join, and the merged pair's best is one of its halves' bests).
  // Each per-pair best is the *unique* maximum under the total order
  // key(e) = (weight desc, id asc), so the surviving candidate set is
  // independent of the scan/container order by construction. This single
  // O(m) scan doubles as the connectivity pre-check below.
  std::map<std::pair<Index, Index>, EdgeId> best;
  for (EdgeId x = 0; x < g_->num_edges(); ++x) {
    if (deleted[static_cast<std::size_t>(x)] != 0 || contains(x)) continue;
    const Edge& cand = g_->edge(x);
    const Index ru = uf.find(static_cast<Index>(cand.u));
    const Index rv = uf.find(static_cast<Index>(cand.v));
    if (ru == rv) continue;
    const std::pair<Index, Index> key{std::min(ru, rv), std::max(ru, rv)};
    const auto [it, inserted] = best.try_emplace(key, x);
    if (!inserted && beats(x, it->second)) it->second = x;
  }
  std::vector<EdgeId> candidates;
  candidates.reserve(best.size());
  for (const auto& [pair, x] : best) candidates.push_back(x);
  // Canonical greedy order: stable-sort by the same total order Kruskal
  // uses. With `beats` a strict total order (unique keys) every sort
  // agrees, but candidates from *different* component pairs carry
  // independent keys — stable_sort pins the tie topology to the input
  // order deterministically instead of leaning on sort-algorithm
  // behavior, matching kruskal.cpp's acceptance order exactly.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [this](EdgeId a, EdgeId b) { return beats(a, b); });
  // Run the greedy joins on the scratch union-find first: if the
  // components cannot be reconnected the deletions disconnect the graph,
  // and the documented throw must leave the tree untouched. (A candidate
  // crossing edge exists for every reconnectable pair, so reconnecting
  // the per-pair bests succeeds iff the surviving graph is connected.)
  std::vector<EdgeId> chosen;
  chosen.reserve(dropped.size());
  for (const EdgeId x : candidates) {
    const Edge& cand = g_->edge(x);
    if (uf.unite(static_cast<Index>(cand.u), static_cast<Index>(cand.v))) {
      chosen.push_back(x);
    }
  }
  SSP_REQUIRE(uf.num_sets() == 1,
              "MaxWeightTree: deletions disconnect the graph");
  if (!dropped.empty()) tree_changed_ = true;
  for (const EdgeId e : dropped) unlink(e);
  for (const EdgeId x : chosen) link(x);
  // One wholesale O(n) re-rooting replaces per-swap chain surgery — the
  // batch already paid O(m) above.
  rebuild_rooted();
  return static_cast<EdgeId>(chosen.size());
}

void MaxWeightTree::remap_ids(std::span<const EdgeId> old_to_new) {
  std::vector<char> remapped(static_cast<std::size_t>(g_->num_edges()), 0);
  for (auto& list : adj_) {
    for (HalfEdge& h : list) {
      const EdgeId mapped = old_to_new[static_cast<std::size_t>(h.edge)];
      SSP_REQUIRE(mapped != kInvalidEdge,
                  "MaxWeightTree: a deleted edge is still in the tree");
      h.edge = mapped;
      remapped[static_cast<std::size_t>(mapped)] = 1;
    }
  }
  in_tree_ = std::move(remapped);
  for (std::size_t v = 0; v < parent_eid_.size(); ++v) {
    if (parent_eid_[v] == kInvalidEdge) continue;
    const EdgeId mapped = old_to_new[static_cast<std::size_t>(parent_eid_[v])];
    SSP_REQUIRE(mapped != kInvalidEdge,
                "MaxWeightTree: a deleted edge is still in the rooted view");
    parent_eid_[v] = mapped;
  }
  // Compaction preserves relative id order and never changes weights, so
  // the cached canonical order survives the renumbering; stale entries
  // for deleted edges (unlinked but not yet merged out) simply drop.
  std::size_t out = 0;
  for (const EdgeId e : canon_) {
    const EdgeId mapped = old_to_new[static_cast<std::size_t>(e)];
    if (mapped != kInvalidEdge) canon_[out++] = mapped;
  }
  canon_.resize(out);
  out = 0;
  for (const EdgeId e : canon_touched_) {
    const EdgeId mapped = old_to_new[static_cast<std::size_t>(e)];
    if (mapped != kInvalidEdge) canon_touched_[out++] = mapped;
  }
  canon_touched_.resize(out);
  edge_stamp_.resize(static_cast<std::size_t>(g_->num_edges()), 0);
}

std::span<const EdgeId> MaxWeightTree::canonical_edge_ids() {
  if (canon_touched_.empty()) return canon_;
  // Fold the batch's changed ids into the cached order: drop every
  // touched id from the old list, then merge the currently-in-tree
  // touched ids back at their (possibly new) positions. O(n) plus
  // O(k log k) for the k touched ids — no full re-sort.
  std::sort(canon_touched_.begin(), canon_touched_.end());
  canon_touched_.erase(
      std::unique(canon_touched_.begin(), canon_touched_.end()),
      canon_touched_.end());
  edge_stamp_.resize(static_cast<std::size_t>(g_->num_edges()), 0);
  const std::uint64_t ep = next_epoch();
  std::vector<EdgeId> add;
  add.reserve(canon_touched_.size());
  for (const EdgeId e : canon_touched_) {
    edge_stamp_[static_cast<std::size_t>(e)] = ep;
    if (in_tree_[static_cast<std::size_t>(e)] != 0) add.push_back(e);
  }
  std::sort(add.begin(), add.end(),
            [this](EdgeId a, EdgeId b) { return beats(a, b); });
  std::vector<EdgeId> merged;
  merged.reserve(static_cast<std::size_t>(g_->num_vertices()) - 1);
  std::size_t j = 0;
  for (const EdgeId e : canon_) {
    if (edge_stamp_[static_cast<std::size_t>(e)] == ep) continue;  // dropped
    while (j < add.size() && beats(add[j], e)) merged.push_back(add[j++]);
    merged.push_back(e);
  }
  while (j < add.size()) merged.push_back(add[j++]);
  canon_ = std::move(merged);
  canon_touched_.clear();
  SSP_ASSERT(static_cast<Vertex>(canon_.size()) == g_->num_vertices() - 1,
             "MaxWeightTree: canonical order lost a tree edge");
  return canon_;
}

}  // namespace ssp
