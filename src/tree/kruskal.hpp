#pragma once

/// \file kruskal.hpp
/// Maximum-weight spanning tree (Kruskal + union–find).
///
/// For Laplacians, maximizing total edge weight minimizes the sum of tree
/// edge *resistances* greedily — the classic practical backbone choice and
/// the baseline the AKPW low-stretch tree is compared against
/// (bench_ablation_backbone).
///
/// Kruskal is split into its two halves: the sort (`max_weight_edge_order`)
/// and the scan (`kruskal_scan`). The dynamic layer keeps the sorted order
/// across update batches and patches it with one merge per batch, so its
/// backbone comes from the same scan a cold build runs.

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "tree/spanning_tree.hpp"

namespace ssp {

/// The canonical edge order: `a` precedes `b` when it is heavier, or when
/// the weights tie and `a < b`. A strict total order on the edge ids of
/// `g`, so the maximum-weight spanning tree under it is unique.
[[nodiscard]] inline bool max_weight_before(const GraphView& g, EdgeId a,
                                            EdgeId b) {
  const double wa = g.edge(a).weight;
  const double wb = g.edge(b).weight;
  return wa > wb || (wa == wb && a < b);
}

/// Every edge id of `g` sorted by `max_weight_before`.
[[nodiscard]] std::vector<EdgeId> max_weight_edge_order(const GraphView& g);

/// Kruskal's scan: walks `order` and accepts every edge that joins two
/// components, stopping at n−1 accepted edges. Returns the accepted ids in
/// acceptance order. Throws when the edges in `order` do not connect `g`.
[[nodiscard]] std::vector<EdgeId> kruskal_scan(const GraphView& g,
                                               std::span<const EdgeId> order);

/// Edge ids of the canonical maximum-weight spanning tree of `g`, in
/// Kruskal acceptance order: `kruskal_scan(g, max_weight_edge_order(g))`.
/// Consumes a `GraphView`, so the scan runs directly on an mmap'd `.sspb`
/// graph without materializing a heap `Graph`. Throws when `g` is not
/// connected. `max_weight_spanning_tree` is this scan plus a
/// `SpanningTree` rooting over the host graph.
[[nodiscard]] std::vector<EdgeId> max_weight_tree_edges(const GraphView& g);

/// Maximum-weight spanning tree. Throws when `g` is not connected.
[[nodiscard]] SpanningTree max_weight_spanning_tree(const Graph& g,
                                                    Vertex root = 0);

/// Minimum-weight spanning tree (used by tests as an adversarial backbone).
[[nodiscard]] SpanningTree min_weight_spanning_tree(const Graph& g,
                                                    Vertex root = 0);

}  // namespace ssp
