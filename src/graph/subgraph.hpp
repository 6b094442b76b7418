#pragma once

/// \file subgraph.hpp
/// Vertex-set subgraph extraction with local ↔ global id maps — the shared
/// primitive behind recursive bisection and the scale layer's driver
/// (src/scale/).
///
/// All extractors consume a `GraphView` (heap graphs convert
/// implicitly; mmap'd `.sspb` graphs extract without materializing the
/// host), preserve edge multiplicity and weights exactly, keep
/// edges in host edge-id order (so local edge id order is a deterministic
/// function of the host graph), and return finalized graphs.

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "util/types.hpp"

namespace ssp {

/// A subgraph together with maps back to its host graph: local vertex `i`
/// is host vertex `local_to_global[i]`, local edge `e` is host edge
/// `edge_to_global[e]`.
struct Subgraph {
  Graph graph;  ///< finalized
  std::vector<Vertex> local_to_global;
  std::vector<EdgeId> edge_to_global;
};

/// Induced subgraph on `vertices` (host ids, each at most once): every host
/// edge with both endpoints inside. Local vertex ids follow the order of
/// `vertices`; local edge ids follow ascending host edge id.
[[nodiscard]] Subgraph induced_subgraph(const GraphView& g,
                                        std::span<const Vertex> vertices);

/// One induced subgraph per block id in [first, last) of `assignment`
/// (per-vertex block id in [0, num_blocks)), built in a single pass over
/// the edges; element i is block first + i. Local vertex ids within each
/// block follow ascending host vertex id. Blocks may be empty (zero
/// vertices); callers that forbid empty blocks check themselves.
[[nodiscard]] std::vector<Subgraph> partition_subgraphs(
    const GraphView& g, std::span<const Vertex> assignment, Index num_blocks,
    Index first, Index last);

/// Every block of `assignment`, in block id order.
[[nodiscard]] inline std::vector<Subgraph> partition_subgraphs(
    const GraphView& g, std::span<const Vertex> assignment,
    Index num_blocks) {
  return partition_subgraphs(g, assignment, num_blocks, 0, num_blocks);
}

/// The cut graph of an assignment: vertices are the endpoints of
/// inter-block edges (ascending host id), edges are exactly the cut edges
/// (ascending host edge id). Empty when the assignment has no cut edges.
[[nodiscard]] Subgraph cut_subgraph(const GraphView& g,
                                    std::span<const Vertex> assignment);

}  // namespace ssp
