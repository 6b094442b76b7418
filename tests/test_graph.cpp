// Unit tests for src/graph: Graph invariants, adjacency construction,
// Laplacian assembly, connectivity analysis, and matrix conversions.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/graph.hpp"
#include "graph/laplacian.hpp"
#include "la/vector_ops.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/sspb_io.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  g.finalize();
  return g;
}

TEST(Graph, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  g.finalize();
  EXPECT_TRUE(g.finalized());
}

TEST(Graph, AddEdgeValidation) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), std::invalid_argument);   // self-loop
  EXPECT_THROW(g.add_edge(0, 3, 1.0), std::invalid_argument);   // range
  EXPECT_THROW(g.add_edge(-1, 1, 1.0), std::invalid_argument);  // range
  EXPECT_THROW(g.add_edge(0, 1, 0.0), std::invalid_argument);   // weight
  EXPECT_THROW(g.add_edge(0, 1, -2.0), std::invalid_argument);  // weight
  EXPECT_THROW(g.add_edge(0, 1, std::nan("")), std::invalid_argument);
  const EdgeId e = g.add_edge(0, 1, 1.5);
  EXPECT_EQ(e, 0);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, EdgeAccessors) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.edge(1).weight, 2.0);
  EXPECT_EQ(g.edge(1).u, 1);
  EXPECT_EQ(g.edge(1).v, 2);
  EXPECT_THROW((void)g.edge(3), std::invalid_argument);
  EXPECT_THROW((void)g.edge(-1), std::invalid_argument);
}

TEST(Graph, NeighborsAndDegrees) {
  const Graph g = triangle();
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 4.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 3.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(2), 5.0);

  std::set<Vertex> nbrs;
  double wsum = 0.0;
  for (const auto item : g.neighbors(2)) {
    nbrs.insert(item.neighbor);
    wsum += item.weight;
    // edge id consistency
    const Edge& e = g.edge(item.edge);
    EXPECT_TRUE(e.u == 2 || e.v == 2);
  }
  EXPECT_EQ(nbrs, (std::set<Vertex>{0, 1}));
  EXPECT_DOUBLE_EQ(wsum, 5.0);
}

TEST(Graph, NeighborsRequireFinalize) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW((void)g.neighbors(0), std::invalid_argument);
  g.finalize();
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  // Adding an edge invalidates; finalize() restores.
  g.add_edge(0, 1, 2.0);
  EXPECT_FALSE(g.finalized());
  g.finalize();
  EXPECT_EQ(g.neighbors(0).size(), 2u);
}

TEST(Graph, CoalesceParallelEdges) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 2.5);  // parallel, reversed orientation
  g.add_edge(1, 2, 1.0);
  g.coalesce_parallel_edges();
  g.finalize();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 3.5);
  EXPECT_DOUBLE_EQ(g.total_weight(), 4.5);
}

TEST(Graph, EdgeSubgraphPreservesEndpoints) {
  const Graph g = triangle();
  const std::vector<EdgeId> keep = {2, 0};
  const Graph s = g.edge_subgraph(keep);
  EXPECT_EQ(s.num_vertices(), 3);
  EXPECT_EQ(s.num_edges(), 2);
  EXPECT_DOUBLE_EQ(s.edge(0).weight, 3.0);  // original edge 2
  EXPECT_DOUBLE_EQ(s.edge(1).weight, 1.0);  // original edge 0
}

TEST(Laplacian, RowsSumToZero) {
  const Graph g = triangle();
  const CsrMatrix l = laplacian(g);
  EXPECT_EQ(l.rows(), 3);
  EXPECT_TRUE(l.is_symmetric(1e-15));
  const Vec ones(3, 1.0);
  const Vec ly = l.multiply(ones);
  for (double v : ly) EXPECT_NEAR(v, 0.0, 1e-14);
}

TEST(Laplacian, MatchesDefinition) {
  const Graph g = triangle();
  const CsrMatrix l = laplacian(g);
  EXPECT_DOUBLE_EQ(l.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(l.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(l.at(0, 2), -3.0);
  EXPECT_DOUBLE_EQ(l.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(l.at(2, 2), 5.0);
}

TEST(Laplacian, QuadraticFormIsWeightedCutSum) {
  // x^T L x = sum_e w_e (x_u - x_v)^2.
  const Graph g = triangle();
  const CsrMatrix l = laplacian(g);
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Vec x = rng.normal_vector(3);
    double expected = 0.0;
    for (const Edge& e : g.edges()) {
      const double d = x[static_cast<std::size_t>(e.u)] -
                       x[static_cast<std::size_t>(e.v)];
      expected += e.weight * d * d;
    }
    EXPECT_NEAR(l.quadratic(x), expected, 1e-12 * std::max(1.0, expected));
  }
}

TEST(Laplacian, PositiveSemiDefinite) {
  Rng rng(11);
  Graph g(20);
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<Vertex>(rng.uniform_int(0, 19));
    const auto b = static_cast<Vertex>(rng.uniform_int(0, 19));
    if (a != b) g.add_edge(a, b, rng.uniform(0.1, 3.0));
  }
  g.finalize();
  const CsrMatrix l = laplacian(g);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec x = rng.normal_vector(20);
    EXPECT_GE(l.quadratic(x), -1e-10);
  }
}

TEST(Laplacian, AdjacencyMatrix) {
  const Graph g = triangle();
  const CsrMatrix w = adjacency_matrix(g);
  EXPECT_DOUBLE_EQ(w.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.at(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(w.at(0, 0), 0.0);
}

TEST(Laplacian, GraphFromLaplacianRoundTrip) {
  const Graph g = triangle();
  const CsrMatrix l = laplacian(g);
  const Graph h = graph_from_laplacian(l);
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_DOUBLE_EQ(h.total_weight(), g.total_weight());
  // Laplacians equal
  const CsrMatrix l2 = laplacian(h);
  for (Index r = 0; r < 3; ++r) {
    for (Index c = 0; c < 3; ++c) {
      EXPECT_NEAR(l2.at(r, c), l.at(r, c), 1e-14);
    }
  }
}

TEST(Laplacian, GraphFromMatrixUniformMagnitudeRule) {
  // Paper §4 rule applied uniformly over both triangles: pair {i,j} gets
  // weight max(|a_ij|, |a_ji|); negative entries are magnitude-converted.
  const std::vector<Triplet> ts = {
      {1, 0, -2.0},  // edge {1,0} w=2 (magnitude of a negative entry)
      {2, 0, 4.0},   // lower entry of pair {2,0}...
      {0, 2, 99.0},  // ...whose asymmetric upper mirror wins: w=99
      {1, 2, 5.0},   // upper-triangle-only pair: kept, w=5
      {1, 1, 7.0},   // diagonal: ignored
  };
  const CsrMatrix a = CsrMatrix::from_triplets(3, 3, ts);
  const Graph g = graph_from_matrix(a);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.total_weight(), 2.0 + 99.0 + 5.0);
  const Graph gu = graph_from_matrix(a, /*unit_weights=*/true);
  EXPECT_DOUBLE_EQ(gu.total_weight(), 3.0);
}

TEST(Laplacian, GraphFromMatrixStoredZeroMirrorDoesNotDoubleCount) {
  // An explicitly stored 0.0 in the lower triangle still owns its pair:
  // the nonzero upper mirror must not add the edge a second time.
  const std::vector<Triplet> ts = {
      {1, 0, 0.0},   // stored zero, lower
      {0, 1, -2.0},  // nonzero upper mirror
  };
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, ts);
  const Graph g = graph_from_matrix(a);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.total_weight(), 2.0);
}

TEST(Laplacian, GraphFromMatrixRejectsNonFiniteEntries) {
  const std::vector<Triplet> ts = {
      {1, 0, std::numeric_limits<double>::quiet_NaN()},
  };
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, ts);
  EXPECT_THROW((void)graph_from_matrix(a), std::invalid_argument);
  const std::vector<Triplet> ts2 = {
      {1, 0, std::numeric_limits<double>::infinity()},
  };
  const CsrMatrix b = CsrMatrix::from_triplets(2, 2, ts2);
  EXPECT_THROW((void)graph_from_matrix(b), std::invalid_argument);
}

TEST(Laplacian, WeightedDegreesMatchDiagonal) {
  const Graph g = triangle();
  const Vec d = weighted_degrees(g);
  const Vec diag = laplacian(g).diagonal();
  ASSERT_EQ(d.size(), diag.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(d[i], diag[i]);
  }
}

// Reference assembly kept from before the triplet-free one: four triplets
// per edge, in `edge_ids` order, through CsrMatrix::from_triplets.
CsrMatrix triplet_laplacian(const GraphView& g,
                            const std::vector<EdgeId>& edge_ids) {
  std::vector<Triplet> ts;
  for (const EdgeId id : edge_ids) {
    const Edge e = g.edge(id);
    ts.push_back({e.u, e.v, -e.weight});
    ts.push_back({e.v, e.u, -e.weight});
    ts.push_back({e.u, e.u, e.weight});
    ts.push_back({e.v, e.v, e.weight});
  }
  const Index n = g.num_vertices();
  return CsrMatrix::from_triplets(n, n, ts);
}

std::vector<EdgeId> all_ids(EdgeId m) {
  std::vector<EdgeId> ids(static_cast<std::size_t>(m));
  std::iota(ids.begin(), ids.end(), EdgeId{0});
  return ids;
}

void expect_bitwise_equal(const CsrMatrix& a, const CsrMatrix& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_TRUE(std::ranges::equal(a.row_ptr(), b.row_ptr()));
  ASSERT_TRUE(std::ranges::equal(a.col_idx(), b.col_idx()));
  ASSERT_EQ(a.values().size(), b.values().size());
  for (std::size_t k = 0; k < a.values().size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.values()[k]),
              std::bit_cast<std::uint64_t>(b.values()[k]))
        << "value " << k;
  }
}

// Both entry points against the triplet reference: the whole graph, the
// identity id list, a reversed list, and a shuffled subset with repeats.
void expect_assembly_matches_triplets(const Graph& g, const std::string& name) {
  const std::vector<EdgeId> every = all_ids(g.num_edges());
  expect_bitwise_equal(laplacian(g), triplet_laplacian(g, every),
                       name + " laplacian(view)");
  expect_bitwise_equal(laplacian(g, every), triplet_laplacian(g, every),
                       name + " laplacian(g, all ids)");
  std::vector<EdgeId> ids(every.rbegin(), every.rend());
  expect_bitwise_equal(laplacian(g, ids), triplet_laplacian(g, ids),
                       name + " reversed ids");
  Rng rng(17);
  ids.clear();
  for (EdgeId k = 0; k < g.num_edges(); k += 2) {
    ids.push_back(rng.uniform_int(0, g.num_edges() - 1));
  }
  expect_bitwise_equal(laplacian(g, ids), triplet_laplacian(g, ids),
                       name + " random ids with repeats");
  expect_bitwise_equal(laplacian(g, ids),
                       laplacian(g.edge_subgraph(ids)),
                       name + " ids vs edge_subgraph");
}

TEST(LaplacianAssembly, BitIdenticalToTripletsAcrossFamilies) {
  Rng rng(3);
  const auto logw = WeightModel::log_uniform(0.01, 100.0);
  expect_assembly_matches_triplets(grid_2d(13, 17, logw, &rng), "grid2d");
  expect_assembly_matches_triplets(barabasi_albert(400, 3, rng, logw), "ba");
  expect_assembly_matches_triplets(
      erdos_renyi_connected(300, 1500, rng, logw), "er");
  expect_assembly_matches_triplets(rmat_graph(9, 6, rng, {}, logw), "rmat");
  expect_assembly_matches_triplets(
      planted_partition(240, 4, 0.2, 0.01, rng, logw), "planted");
  // A hub row holding every column.
  expect_assembly_matches_triplets(star_graph(100, logw, &rng), "star");
}

TEST(LaplacianAssembly, ParallelEdgesSumInEdgeOrder) {
  // Weights whose sum depends on the order of addition, on both the
  // off-diagonal and the diagonal, in rows short and long.
  Graph g(40);
  const double ws[] = {1e16, 1.0, 3.0, 1e-3, 1e16 + 2.0, 0.1};
  for (Vertex v = 1; v < 40; ++v) {
    for (const double w : ws) {
      // Both orientations, so u-rows and v-rows both coalesce repeats.
      if (v % 2 == 0) {
        g.add_edge(0, v, w * v);
      } else {
        g.add_edge(v, 0, w * v);
      }
    }
  }
  g.add_edge(5, 3, 0.7);
  g.add_edge(3, 5, 1e17);
  g.add_edge(5, 3, 0.3);
  g.finalize();
  expect_assembly_matches_triplets(g, "parallel");
}

TEST(LaplacianAssembly, EmptyAndUnsortedIdLists) {
  const Graph g = triangle();
  const CsrMatrix empty = laplacian(g, std::vector<EdgeId>{});
  EXPECT_EQ(empty.rows(), 3);
  EXPECT_EQ(empty.nnz(), 0);
  expect_bitwise_equal(empty, triplet_laplacian(g, {}), "empty");
  const std::vector<EdgeId> ids = {2, 0, 2, 1, 0};
  expect_bitwise_equal(laplacian(g, ids), triplet_laplacian(g, ids),
                       "duplicate unsorted ids");
  // A subset leaves isolated vertices with empty rows.
  const Graph p = path_graph(6);
  const std::vector<EdgeId> ends = {4, 0};
  const CsrMatrix l = laplacian(p, ends);
  expect_bitwise_equal(l, triplet_laplacian(p, ends), "isolated rows");
  EXPECT_EQ(l.row_cols(2).size(), 0u);
  EXPECT_THROW((void)laplacian(g, std::vector<EdgeId>{3}),
               std::invalid_argument);
}

TEST(LaplacianAssembly, MappedViewMatchesTriplets) {
  Rng rng(5);
  const Graph g =
      barabasi_albert(300, 4, rng, WeightModel::log_uniform(0.1, 10.0));
  const std::string path =
      "/tmp/ssp_graph_assembly_" + std::to_string(::getpid()) + ".sspb";
  storage::write_sspb(path, g);
  {
    const storage::MappedGraph mapped(path);
    const GraphView view = mapped.view();
    expect_bitwise_equal(laplacian(view),
                         triplet_laplacian(view, all_ids(view.num_edges())),
                         "mapped view");
    expect_bitwise_equal(laplacian(view), laplacian(g), "mapped vs heap");
  }
  std::remove(path.c_str());
}

TEST(Connectivity, SingleComponent) {
  const Graph g = triangle();
  EXPECT_TRUE(is_connected(g));
  const ComponentLabels cl = connected_components(g);
  EXPECT_EQ(cl.num_components, 1);
}

TEST(Connectivity, MultipleComponents) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.finalize();  // vertex 4 isolated
  EXPECT_FALSE(is_connected(g));
  const ComponentLabels cl = connected_components(g);
  EXPECT_EQ(cl.num_components, 3);
  EXPECT_EQ(cl.label[0], cl.label[1]);
  EXPECT_EQ(cl.label[2], cl.label[3]);
  EXPECT_NE(cl.label[0], cl.label[2]);
  EXPECT_NE(cl.label[4], cl.label[0]);
}

TEST(Connectivity, LargestComponentExtraction) {
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);  // component {0,1,2}
  g.add_edge(3, 4, 1.0);  // component {3,4}; vertex 5 isolated
  g.finalize();
  std::vector<Vertex> back;
  const Graph big = largest_component(g, &back);
  EXPECT_EQ(big.num_vertices(), 3);
  EXPECT_EQ(big.num_edges(), 2);
  EXPECT_TRUE(is_connected(big));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], 0);
  EXPECT_EQ(back[2], 2);
}

TEST(Connectivity, ConnectComponentsRepairs) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.finalize();
  const Index added = connect_components(g, 0.5);
  EXPECT_EQ(added, 1);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(connect_components(g), 0);  // idempotent on connected input
}

TEST(Connectivity, EmptyGraphNotConnected) {
  Graph g(0);
  g.finalize();
  EXPECT_FALSE(is_connected(g));
}

}  // namespace
}  // namespace ssp
