#include "graph/subgraph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ssp {

Subgraph induced_subgraph(const GraphView& g, std::span<const Vertex> vertices) {
  std::vector<Vertex> global_to_local(
      static_cast<std::size_t>(g.num_vertices()), kInvalidVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const Vertex v = vertices[i];
    SSP_REQUIRE(v >= 0 && v < g.num_vertices(),
                "induced_subgraph: vertex id out of range");
    SSP_REQUIRE(global_to_local[static_cast<std::size_t>(v)] == kInvalidVertex,
                "induced_subgraph: duplicate vertex in selection");
    global_to_local[static_cast<std::size_t>(v)] = static_cast<Vertex>(i);
  }

  Subgraph out;
  out.local_to_global.assign(vertices.begin(), vertices.end());
  out.graph = Graph(static_cast<Vertex>(vertices.size()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge edge = g.edge(e);
    const Vertex lu = global_to_local[static_cast<std::size_t>(edge.u)];
    const Vertex lv = global_to_local[static_cast<std::size_t>(edge.v)];
    if (lu != kInvalidVertex && lv != kInvalidVertex) {
      out.graph.add_edge(lu, lv, edge.weight);
      out.edge_to_global.push_back(e);
    }
  }
  out.graph.finalize();
  return out;
}

std::vector<Subgraph> partition_subgraphs(const GraphView& g,
                                          std::span<const Vertex> assignment,
                                          Index num_blocks, Index first,
                                          Index last) {
  SSP_REQUIRE(
      assignment.size() == static_cast<std::size_t>(g.num_vertices()),
      "partition_subgraphs: assignment size must equal num_vertices");
  SSP_REQUIRE(num_blocks >= 1, "partition_subgraphs: need >= 1 block");
  SSP_REQUIRE(0 <= first && first <= last && last <= num_blocks,
              "partition_subgraphs: block range out of bounds");

  std::vector<Subgraph> blocks(static_cast<std::size_t>(last - first));
  // Local vertex ids per block in ascending global id order.
  std::vector<Vertex> local_id(static_cast<std::size_t>(g.num_vertices()),
                               kInvalidVertex);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Vertex b = assignment[static_cast<std::size_t>(v)];
    SSP_REQUIRE(b >= 0 && static_cast<Index>(b) < num_blocks,
                "partition_subgraphs: block id out of range");
    if (b < first || b >= last) continue;
    auto& block = blocks[static_cast<std::size_t>(b - first)];
    local_id[static_cast<std::size_t>(v)] =
        static_cast<Vertex>(block.local_to_global.size());
    block.local_to_global.push_back(v);
  }
  for (auto& block : blocks) {
    block.graph = Graph(static_cast<Vertex>(block.local_to_global.size()));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge edge = g.edge(e);
    const Vertex bu = assignment[static_cast<std::size_t>(edge.u)];
    const Vertex bv = assignment[static_cast<std::size_t>(edge.v)];
    if (bu != bv || bu < first || bu >= last) continue;
    auto& block = blocks[static_cast<std::size_t>(bu - first)];
    block.graph.add_edge(local_id[static_cast<std::size_t>(edge.u)],
                         local_id[static_cast<std::size_t>(edge.v)],
                         edge.weight);
    block.edge_to_global.push_back(e);
  }
  for (auto& block : blocks) block.graph.finalize();
  return blocks;
}

Subgraph cut_subgraph(const GraphView& g, std::span<const Vertex> assignment) {
  SSP_REQUIRE(assignment.size() == static_cast<std::size_t>(g.num_vertices()),
              "cut_subgraph: assignment size must equal num_vertices");

  std::vector<char> boundary(static_cast<std::size_t>(g.num_vertices()), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge edge = g.edge(e);
    if (assignment[static_cast<std::size_t>(edge.u)] !=
        assignment[static_cast<std::size_t>(edge.v)]) {
      boundary[static_cast<std::size_t>(edge.u)] = 1;
      boundary[static_cast<std::size_t>(edge.v)] = 1;
    }
  }

  Subgraph out;
  std::vector<Vertex> global_to_local(
      static_cast<std::size_t>(g.num_vertices()), kInvalidVertex);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (boundary[static_cast<std::size_t>(v)] != 0) {
      global_to_local[static_cast<std::size_t>(v)] =
          static_cast<Vertex>(out.local_to_global.size());
      out.local_to_global.push_back(v);
    }
  }
  out.graph = Graph(static_cast<Vertex>(out.local_to_global.size()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge edge = g.edge(e);
    if (assignment[static_cast<std::size_t>(edge.u)] ==
        assignment[static_cast<std::size_t>(edge.v)]) {
      continue;
    }
    out.graph.add_edge(global_to_local[static_cast<std::size_t>(edge.u)],
                       global_to_local[static_cast<std::size_t>(edge.v)],
                       edge.weight);
    out.edge_to_global.push_back(e);
  }
  out.graph.finalize();
  return out;
}

}  // namespace ssp
