#include "tree/kruskal.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/assert.hpp"
#include "util/union_find.hpp"

namespace ssp {

namespace {

std::vector<EdgeId> all_edge_ids(const GraphView& g) {
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.num_edges()));
  std::iota(ids.begin(), ids.end(), EdgeId{0});
  return ids;
}

}  // namespace

std::vector<EdgeId> max_weight_edge_order(const GraphView& g) {
  std::vector<EdgeId> ids = all_edge_ids(g);
  std::stable_sort(ids.begin(), ids.end(), [&g](EdgeId a, EdgeId b) {
    return max_weight_before(g, a, b);
  });
  return ids;
}

std::vector<EdgeId> kruskal_scan(const GraphView& g,
                                 std::span<const EdgeId> order) {
  SSP_REQUIRE(g.num_vertices() >= 1, "kruskal: empty graph");
  UnionFind uf(g.num_vertices());
  std::vector<EdgeId> tree;
  tree.reserve(static_cast<std::size_t>(g.num_vertices()) - 1);
  for (EdgeId id : order) {
    if (static_cast<Vertex>(tree.size()) == g.num_vertices() - 1) break;
    const Edge e = g.edge(id);
    if (uf.unite(e.u, e.v)) tree.push_back(id);
  }
  SSP_REQUIRE(static_cast<Vertex>(tree.size()) == g.num_vertices() - 1,
              "kruskal: graph is not connected");
  return tree;
}

std::vector<EdgeId> max_weight_tree_edges(const GraphView& g) {
  return kruskal_scan(g, max_weight_edge_order(g));
}

SpanningTree max_weight_spanning_tree(const Graph& g, Vertex root) {
  return SpanningTree(g, max_weight_tree_edges(g), root);
}

SpanningTree min_weight_spanning_tree(const Graph& g, Vertex root) {
  std::vector<EdgeId> ids = all_edge_ids(g);
  std::stable_sort(ids.begin(), ids.end(), [&g](EdgeId a, EdgeId b) {
    return g.edge(a).weight < g.edge(b).weight;
  });
  return SpanningTree(g, kruskal_scan(g, ids), root);
}

}  // namespace ssp
