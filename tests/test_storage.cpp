// Tests for the out-of-core storage layer (src/storage/) and its
// consumers: the `.sspb` round-trip identity (heap graph ↔ written file ↔
// mmap'd view ↔ re-materialized heap graph, across the paper's generator
// families), the streaming .mtx converter's bit-identity with
// load_graph_mtx, the precise byte-offset/field error contract on
// corrupt/truncated/wrong-magic/wrong-version files, the unified graph
// source resolver, engine heap-vs-mmap parity, the hierarchical
// out-of-core driver's whole-graph and multi-leaf contracts, and
// sparsifier checkpoint save/load/restore bit-identity.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/sparsifier.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "graph/generators/airfoil.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/knn.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/points.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/generators/weights.hpp"
#include "graph/graph_source.hpp"
#include "graph/mtx_io.hpp"
#include "harness.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "storage/checkpoint.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/sspb_io.hpp"
#include "util/rng.hpp"
#include "util/union_find.hpp"

namespace ssp {
namespace {

struct Family {
  const char* name;
  Graph graph;
};

/// One small graph per generator family the paper evaluates (the same
/// spread test_dynamic uses, plus a preferential-attachment graph).
std::vector<Family> generator_families() {
  std::vector<Family> families;
  {
    Rng rng(11);
    families.push_back(
        {"lattice", grid_2d(12, 12, WeightModel::log_uniform(0.2, 5.0), &rng)});
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
  {
    Rng rng(15);
    families.push_back(
        {"ba", barabasi_albert(200, 3, rng, WeightModel::uniform(0.5, 2.0))});
  }
  return families;
}

/// Scratch path in /tmp, unique per test and process.
std::string tmp_path(const std::string& tag, const std::string& ext) {
  return "/tmp/ssp_storage_" + tag + "_" + std::to_string(::getpid()) + ext;
}

/// Bit-exact equality of two finalized graphs: shape, edge list (weights
/// compared as bit patterns), adjacency arrays, weighted degrees.
void expect_graphs_bit_identical(const GraphView& a, const GraphView& b,
                                 const std::string& context) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << context;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << context;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const Edge ea = a.edge(e);
    const Edge eb = b.edge(e);
    ASSERT_EQ(ea.u, eb.u) << context << " edge " << e;
    ASSERT_EQ(ea.v, eb.v) << context << " edge " << e;
    std::uint64_t wa = 0;
    std::uint64_t wb = 0;
    std::memcpy(&wa, &ea.weight, 8);
    std::memcpy(&wb, &eb.weight, 8);
    ASSERT_EQ(wa, wb) << context << " edge " << e << " weight bits";
  }
  for (Vertex v = 0; v <= a.num_vertices(); ++v) {
    ASSERT_EQ(a.adj_ptr()[static_cast<std::size_t>(v)],
              b.adj_ptr()[static_cast<std::size_t>(v)])
        << context << " adj_ptr " << v;
  }
  for (std::size_t i = 0; i < a.adj_nbr().size(); ++i) {
    ASSERT_EQ(a.adj_nbr()[i], b.adj_nbr()[i]) << context << " adj_nbr " << i;
    ASSERT_EQ(a.adj_eid()[i], b.adj_eid()[i]) << context << " adj_eid " << i;
    std::uint64_t wa = 0;
    std::uint64_t wb = 0;
    std::memcpy(&wa, &a.adj_w()[i], 8);
    std::memcpy(&wb, &b.adj_w()[i], 8);
    ASSERT_EQ(wa, wb) << context << " adj_w " << i;
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    std::uint64_t wa = 0;
    std::uint64_t wb = 0;
    std::memcpy(&wa, &a.weighted_degrees_span()[static_cast<std::size_t>(v)],
                8);
    std::memcpy(&wb, &b.weighted_degrees_span()[static_cast<std::size_t>(v)],
                8);
    ASSERT_EQ(wa, wb) << context << " weighted_degree " << v;
  }
}

/// Patches `count` bytes at `offset` in an existing file.
void patch_file(const std::string& path, std::uint64_t offset,
                const void* data, std::size_t count) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(count));
  ASSERT_TRUE(f.good()) << path;
}

// ---- .sspb round trips -----------------------------------------------------

TEST(SspbFormat, WriteMapMaterializeRoundTripAcrossFamilies) {
  for (const auto& [name, g] : generator_families()) {
    const std::string path = tmp_path(std::string("rt_") + name, ".sspb");
    storage::write_sspb(path, g);
    const storage::MappedGraph mapped(path);
    // The mmap'd view equals the heap graph array for array...
    expect_graphs_bit_identical(g, mapped.view(), name);
    // ...and survives a deep copy back to the heap (finalize() rebuilds
    // the same CSR the file holds).
    const Graph copy = mapped.materialize();
    expect_graphs_bit_identical(g, copy, std::string(name) + " materialized");
    // release_pages() drops RSS but never data: the view re-faults.
    mapped.release_pages();
    expect_graphs_bit_identical(g, mapped.view(),
                                std::string(name) + " after release");
    std::remove(path.c_str());
  }
}

TEST(SspbFormat, StreamingConvertMatchesMtxLoaderAcrossFamilies) {
  for (const auto& [name, g] : generator_families()) {
    const std::string mtx = tmp_path(std::string("cv_") + name, ".mtx");
    const std::string bin = tmp_path(std::string("cv_") + name, ".sspb");
    save_graph_mtx(mtx, g);
    const storage::ConvertStats stats = storage::convert_mtx_to_sspb(mtx, bin);
    const Graph via_loader = load_graph_mtx(mtx);
    const storage::MappedGraph mapped(bin);
    EXPECT_EQ(stats.vertices, via_loader.num_vertices()) << name;
    EXPECT_EQ(stats.edges, via_loader.num_edges()) << name;
    expect_graphs_bit_identical(via_loader, mapped.view(), name);
    std::remove(mtx.c_str());
    std::remove(bin.c_str());
  }
}

TEST(SspbFormat, ConvertAppliesMagnitudeRuleLikeTheLoader) {
  // A hand-written general .mtx exercising the §4 corners: asymmetric
  // pair (magnitude = max |a_ij|, |a_ji|), diagonal entries (skipped),
  // a zero entry (dropped), and a dangling second component (dropped by
  // the largest-component filter).
  const std::string mtx = tmp_path("rule", ".mtx");
  const std::string bin = tmp_path("rule", ".sspb");
  {
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << "5 5 8\n";
    out << "1 2 -3.5\n";
    out << "2 1 1.25\n";   // pair magnitude max(3.5, 1.25) = 3.5
    out << "1 1 7.0\n";    // diagonal: skipped
    out << "3 1 2.0\n";    // lower-triangle single entry
    out << "2 3 0.0\n";    // upper mirror of a stored lower entry: skipped
    out << "3 2 0.75\n";   // lower owns the pair: max(0.75, 0.0) = 0.75
    out << "4 5 1.0\n";    // second component...
    out << "5 4 1.0\n";    // ...dropped by the component filter
  }
  const storage::ConvertStats stats = storage::convert_mtx_to_sspb(mtx, bin);
  const Graph via_loader = load_graph_mtx(mtx);
  const storage::MappedGraph mapped(bin);
  expect_graphs_bit_identical(via_loader, mapped.view(), "magnitude rule");
  EXPECT_EQ(stats.dropped_vertices, 2);
  EXPECT_EQ(stats.dropped_edges, 1);
  std::remove(mtx.c_str());
  std::remove(bin.c_str());
}

TEST(SspbFormat, DuplicateEntriesSumInFileOrderLikeTheLoader) {
  // Duplicate directed (row, col) entries whose floating-point sum
  // depends on the order of addition: in file order 1e16 + 1 loses the 1
  // and the total lands on 2.5; any other order changes the bits. Both
  // pipelines must coalesce in file order (stable sorts), or the .sspb
  // file silently diverges from the in-core graph.
  const std::string mtx = tmp_path("dup", ".mtx");
  const std::string bin = tmp_path("dup", ".sspb");
  {
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << "3 3 6\n";
    out << "1 2 1e16\n";
    out << "1 2 1\n";
    out << "1 2 -1e16\n";
    out << "1 2 2.5\n";   // file-order sum: ((1e16 + 1) - 1e16) + 2.5 = 2.5
    out << "2 3 0.125\n";
    out << "2 3 0.25\n";  // keeps vertex 3 in the largest component
  }
  const Graph via_loader = load_graph_mtx(mtx);
  storage::convert_mtx_to_sspb(mtx, bin);
  const storage::MappedGraph mapped(bin);
  expect_graphs_bit_identical(via_loader, mapped.view(), "duplicates");
  std::remove(mtx.c_str());
  std::remove(bin.c_str());
}

// ---- .sspb error contract --------------------------------------------------

/// A valid small .sspb file for the corruption tests.
std::string make_valid_sspb(const std::string& tag) {
  Rng rng(7);
  const Graph g = grid_2d(6, 6, WeightModel::log_uniform(0.5, 2.0), &rng);
  const std::string path = tmp_path(tag, ".sspb");
  storage::write_sspb(path, g);
  return path;
}

TEST(SspbErrors, WrongMagicNamesByteZero) {
  const std::string path = make_valid_sspb("magic");
  const std::uint32_t junk = 0xdeadbeefu;
  patch_file(path, 0, &junk, 4);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "wrong magic must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), 0u);
    EXPECT_EQ(e.field(), "magic");
    EXPECT_NE(std::string(e.what()).find("byte 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("deadbeef"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, WrongVersionNamesByteFour) {
  const std::string path = make_valid_sspb("version");
  const std::uint32_t v2 = 2;
  patch_file(path, 4, &v2, 4);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "wrong version must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), 4u);
    EXPECT_EQ(e.field(), "version");
    EXPECT_NE(std::string(e.what()).find("unsupported version 2"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, TruncatedFileNamesTheCutSectionAndOffset) {
  const std::string path = make_valid_sspb("trunc");
  const std::uint64_t full = std::filesystem::file_size(path);
  const std::uint64_t cut = full - 16;  // inside weighted_degree (n*8 = 288)
  std::filesystem::resize_file(path, cut);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "truncated file must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), cut);
    EXPECT_EQ(e.field(), "weighted_degree");
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, FileShorterThanHeaderIsDiagnosed) {
  const std::string path = tmp_path("short", ".sspb");
  {
    std::ofstream out(path, std::ios::binary);
    out << "SSPB";  // 4 of the 32 header bytes
  }
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "short file must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), 4u);
    EXPECT_EQ(e.field(), "header");
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, InconsistentDeclaredSizeNamesFileBytesField) {
  const std::string path = make_valid_sspb("declared");
  const std::uint64_t lie = 99999;
  patch_file(path, 24, &lie, 8);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "bad declared size must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), 24u);
    EXPECT_EQ(e.field(), "file_bytes");
    EXPECT_NE(std::string(e.what()).find("99999"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, HugeEdgeCountIsRejectedBeforeLayoutOverflow) {
  const std::string path = make_valid_sspb("hugem");
  // Large enough that sspb_layout's uint64 arithmetic (largest term 16m)
  // would wrap and could collide with a small file's size — the bound
  // check must reject it before any layout math runs.
  const std::int64_t huge = std::int64_t{1} << 59;
  patch_file(path, 16, &huge, 8);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "huge edge count must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), 16u);
    EXPECT_EQ(e.field(), "m");
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, OutOfRangeNeighborIsRejected) {
  const std::string path = make_valid_sspb("nbr");
  Rng rng(7);
  const Graph g = grid_2d(6, 6, WeightModel::log_uniform(0.5, 2.0), &rng);
  const storage::SspbLayout layout =
      storage::sspb_layout(g.num_vertices(), g.num_edges());
  const Vertex bogus = g.num_vertices();  // one past the last vertex
  patch_file(path, layout.adj_nbr, &bogus, 4);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "out-of-range neighbor must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), layout.adj_nbr);
    EXPECT_EQ(e.field(), "adj_nbr");
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, OutOfRangeEdgeIdIsRejected) {
  const std::string path = make_valid_sspb("eid");
  Rng rng(7);
  const Graph g = grid_2d(6, 6, WeightModel::log_uniform(0.5, 2.0), &rng);
  const storage::SspbLayout layout =
      storage::sspb_layout(g.num_vertices(), g.num_edges());
  const EdgeId bogus = g.num_edges();  // one past the last edge
  patch_file(path, layout.adj_eid, &bogus, 8);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "out-of-range edge id must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), layout.adj_eid);
    EXPECT_EQ(e.field(), "adj_eid");
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, OutOfRangeEndpointIsRejected) {
  const std::string path = make_valid_sspb("endp");
  Rng rng(7);
  const Graph g = grid_2d(6, 6, WeightModel::log_uniform(0.5, 2.0), &rng);
  const storage::SspbLayout layout =
      storage::sspb_layout(g.num_vertices(), g.num_edges());
  const Vertex bogus = -1;
  patch_file(path, layout.edge_u, &bogus, 4);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "out-of-range endpoint must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), layout.edge_u);
    EXPECT_EQ(e.field(), "edge_u");
  }
  std::remove(path.c_str());
}

TEST(SspbErrors, CorruptRowPointersAreRejected) {
  const std::string path = make_valid_sspb("adjptr");
  Rng rng(7);
  const Graph g = grid_2d(6, 6, WeightModel::log_uniform(0.5, 2.0), &rng);
  const storage::SspbLayout layout =
      storage::sspb_layout(g.num_vertices(), g.num_edges());
  const std::int64_t bogus = -5;
  patch_file(path, layout.adj_ptr, &bogus, 8);
  try {
    storage::MappedGraph mapped(path);
    FAIL() << "corrupt adj_ptr must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), layout.adj_ptr);
    EXPECT_EQ(e.field(), "adj_ptr");
  }
  std::remove(path.c_str());
}

// ---- Unified graph-source resolution ---------------------------------------

TEST(GraphSource, ClassifiesSpecsBinariesAndMtx) {
  EXPECT_EQ(classify_graph_source("gen:grid2d:8x8"),
            GraphSourceKind::kGenerator);
  EXPECT_EQ(classify_graph_source("graphs/big.sspb"), GraphSourceKind::kSspb);
  EXPECT_EQ(classify_graph_source("graphs/big.mtx"), GraphSourceKind::kMtx);
  EXPECT_EQ(classify_graph_source("no_extension"), GraphSourceKind::kMtx);
}

TEST(GraphSource, LoadsAllThreeKindsToTheSameBits) {
  const Graph from_spec = load_graph_source("gen:grid2d:9x7:3");
  // A directly-serialized binary preserves the generator's edge order.
  const std::string bin = tmp_path("src", ".sspb");
  storage::write_sspb(bin, from_spec);
  expect_graphs_bit_identical(from_spec, load_graph_source(bin),
                              "spec vs sspb");
  // The .mtx round trip re-orders edges into the loader's CSR scan
  // order — so compare the loader against a binary converted from the
  // same file, which must match it bit for bit.
  const std::string mtx = tmp_path("src", ".mtx");
  const std::string bin2 = tmp_path("src2", ".sspb");
  save_graph_mtx(mtx, from_spec);
  storage::convert_mtx_to_sspb(mtx, bin2);
  const Graph from_mtx = load_graph_source(mtx);
  expect_graphs_bit_identical(from_mtx, load_graph_source(bin2),
                              "mtx vs converted sspb");
  EXPECT_EQ(from_mtx.num_vertices(), from_spec.num_vertices());
  EXPECT_EQ(from_mtx.num_edges(), from_spec.num_edges());
  std::remove(mtx.c_str());
  std::remove(bin.c_str());
  std::remove(bin2.c_str());
}

TEST(GraphSource, GenSpecsAreDeterministic) {
  const Graph a = load_graph_source("gen:grid2d:6x5:7");
  ASSERT_EQ(a.num_vertices(), 30);
  expect_graphs_bit_identical(a, load_graph_source("gen:grid2d:6x5:7"),
                              "same spec");
  // A different seed yields different weights.
  const Graph c = load_graph_source("gen:grid2d:6x5:8");
  bool differs = false;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    differs = differs || a.edge(e).weight != c.edge(e).weight;
  }
  EXPECT_TRUE(differs);
  // Every family parses.
  EXPECT_GT(load_graph_source("gen:tri:5x5").num_edges(), 0);
  EXPECT_GT(load_graph_source("gen:ba:32:2").num_edges(), 0);
  EXPECT_GT(load_graph_source("gen:planted:64:4").num_edges(), 0);
}

TEST(GraphSource, MalformedSpecsThrow) {
  for (const char* spec :
       {"gen:nosuch:4x4", "gen:nosuch:6x5", "gen:grid2d", "gen:grid2d:4",
        "gen:grid2d:6", "gen:grid2d:axb", "gen:grid2d:1x5",
        "gen:grid2d:6x5:7:9", "gen:ba:32", "gen:ba:32:-1"}) {
    EXPECT_THROW((void)load_graph_source(spec), std::invalid_argument)
        << spec;
  }
  EXPECT_THROW((void)load_graph_source("/nonexistent/path.sspb"),
               std::runtime_error);
  EXPECT_THROW((void)load_graph_source("/no/such/file.mtx"),
               std::runtime_error);
}

// ---- Engine parity: heap vs mmap -------------------------------------------

TEST(EngineParity, SparsifierRunsBitIdenticalOnHeapAndMmapGraphs) {
  Rng rng(21);
  const Graph g = grid_2d(16, 16, WeightModel::log_uniform(0.2, 5.0), &rng);
  const std::string path = tmp_path("parity", ".sspb");
  storage::write_sspb(path, g);
  const storage::MappedGraph mapped(path);
  const Graph from_map = mapped.materialize();

  const SparsifyOptions opts = SparsifyOptions{}.with_sigma2(30.0).with_seed(5);
  Sparsifier on_heap(g, opts);
  Sparsifier on_map(from_map, opts);
  on_heap.run();
  on_map.run();
  EXPECT_EQ(on_heap.result().edges, on_map.result().edges);
  EXPECT_EQ(on_heap.result().sigma2_estimate, on_map.result().sigma2_estimate);
  EXPECT_EQ(on_heap.result().lambda_min, on_map.result().lambda_min);
  EXPECT_EQ(on_heap.result().lambda_max, on_map.result().lambda_max);
  std::remove(path.c_str());
}

// ---- Hierarchical out-of-core driver ---------------------------------------

TEST(Hierarchical, WholeGraphFastPathIsBitIdenticalToTheEngine) {
  Rng rng(31);
  const Graph g = grid_2d(14, 14, WeightModel::log_uniform(0.2, 5.0), &rng);
  const SparsifyOptions engine_opts =
      SparsifyOptions{}.with_sigma2(30.0).with_seed(9);
  Sparsifier engine(g, engine_opts);
  engine.run();

  // A budget the whole graph fits in → one leaf → verbatim engine run,
  // on the heap view and on the mmap'd file alike.
  HierarchicalOptions opts;
  opts.memory_budget_bytes = 1ull << 30;
  opts.block = engine_opts;
  const HierarchicalResult on_heap = hierarchical_sparsify(g, opts);
  EXPECT_TRUE(on_heap.whole_graph);
  EXPECT_EQ(on_heap.leaves, 1);
  EXPECT_EQ(on_heap.edges, engine.result().edges);

  const std::string path = tmp_path("oc_whole", ".sspb");
  storage::write_sspb(path, g);
  const storage::MappedGraph mapped(path);
  const HierarchicalResult on_map = hierarchical_sparsify(mapped, opts);
  EXPECT_TRUE(on_map.whole_graph);
  EXPECT_EQ(on_map.edges, engine.result().edges);
  std::remove(path.c_str());
}

TEST(Hierarchical, MultiLeafRunIsDeterministicAcrossProducersAndThreads) {
  Rng rng(33);
  const Graph g = grid_2d(24, 24, WeightModel::log_uniform(0.2, 5.0), &rng);
  const std::string path = tmp_path("oc_multi", ".sspb");
  storage::write_sspb(path, g);
  const storage::MappedGraph mapped(path);

  HierarchicalOptions opts;
  opts.memory_budget_bytes = 24 << 10;  // force several leaves
  opts.block = SparsifyOptions{}.with_sigma2(30.0).with_seed(9);

  HierarchicalOptions t1 = opts;
  t1.threads = 1;
  HierarchicalOptions t4 = opts;
  t4.threads = 4;
  const HierarchicalResult heap_t1 = hierarchical_sparsify(g, t1);
  const HierarchicalResult heap_t4 = hierarchical_sparsify(g, t4);
  const HierarchicalResult map_t1 = hierarchical_sparsify(mapped, t1);

  EXPECT_GT(heap_t1.leaves, 2);
  EXPECT_GT(heap_t1.depth, 0);
  EXPECT_FALSE(heap_t1.whole_graph);
  // Same bits for any thread count and either producer.
  EXPECT_EQ(heap_t1.edges, heap_t4.edges);
  EXPECT_EQ(heap_t1.edges, map_t1.edges);
  EXPECT_EQ(heap_t1.leaves, map_t1.leaves);
  EXPECT_EQ(heap_t1.cut_edges, map_t1.cut_edges);

  // The sparsifier connects what the input connects.
  UnionFind uf(g.num_vertices());
  for (const EdgeId e : heap_t1.edges) {
    const Edge& edge = g.edge(e);
    uf.unite(edge.u, edge.v);
  }
  EXPECT_EQ(uf.num_sets(), 1);
  std::remove(path.c_str());
}

TEST(Hierarchical, LeafStatsCoverEveryVertexAndSelectedEdge) {
  Rng rng(35);
  const Graph g = grid_2d(20, 20, WeightModel::log_uniform(0.2, 5.0), &rng);
  HierarchicalOptions opts;
  opts.memory_budget_bytes = 64 << 10;
  opts.block = SparsifyOptions{}.with_sigma2(30.0).with_seed(9);
  const HierarchicalResult res = hierarchical_sparsify(g, opts);
  ASSERT_EQ(static_cast<Index>(res.leaf_stats.size()), res.leaves);
  Vertex vertices = 0;
  EdgeId kept = 0;
  for (const BlockStats& b : res.leaf_stats) {
    vertices += b.vertices;
    kept += b.kept_edges;
  }
  EXPECT_EQ(vertices, g.num_vertices());
  EXPECT_EQ(kept + res.cut_edges, res.num_edges());
}

// ---- Checkpoint save/load/restore ------------------------------------------

DynamicOptions dynamic_options(std::uint64_t seed = 42) {
  DynamicOptions opts;
  opts.base = SparsifyOptions{}.with_sigma2(30.0).with_seed(seed);
  return opts;
}

TEST(Checkpoint, SaveLoadRoundTripsEveryField) {
  Rng rng(41);
  const Graph g = grid_2d(10, 10, WeightModel::log_uniform(0.2, 5.0), &rng);
  Rng script_rng(101);
  const auto script = testing::make_update_script(g, script_rng);
  DynamicSparsifier dyn(g, dynamic_options());
  for (const UpdateBatch& batch : script) dyn.apply(batch);

  storage::SparsifierCheckpoint ckpt;
  ckpt.commits = static_cast<std::uint64_t>(script.size());
  ckpt.state = dyn.restore_state();

  const std::string path = tmp_path("ckpt_rt", ".sspc");
  storage::save_checkpoint(path, ckpt);
  const storage::SparsifierCheckpoint back = storage::load_checkpoint(path);

  EXPECT_EQ(back.commits, ckpt.commits);
  EXPECT_EQ(back.state.vertices, ckpt.state.vertices);
  EXPECT_EQ(back.state.edges, ckpt.state.edges);
  EXPECT_EQ(back.state.tree_edges, ckpt.state.tree_edges);
  EXPECT_EQ(back.state.offtree_edges, ckpt.state.offtree_edges);
  EXPECT_EQ(back.state.lambda_min, ckpt.state.lambda_min);
  EXPECT_EQ(back.state.lambda_max, ckpt.state.lambda_max);
  EXPECT_EQ(back.state.sigma2_estimate, ckpt.state.sigma2_estimate);
  EXPECT_EQ(back.state.reached_target, ckpt.state.reached_target);
  EXPECT_EQ(back.state.status, ckpt.state.status);
  ASSERT_EQ(back.state.history.size(), ckpt.state.history.size());
  for (std::size_t i = 0; i < back.state.history.size(); ++i) {
    const UpdateStats& a = back.state.history[i];
    const UpdateStats& b = ckpt.state.history[i];
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.inserted, b.inserted);
    EXPECT_EQ(a.removed, b.removed);
    EXPECT_EQ(a.reweighted, b.reweighted);
    EXPECT_EQ(a.graph_edges, b.graph_edges);
    EXPECT_EQ(a.sparsifier_edges, b.sparsifier_edges);
    EXPECT_EQ(a.sigma2_estimate, b.sigma2_estimate);
    EXPECT_EQ(a.reached_target, b.reached_target);
    EXPECT_EQ(a.seconds, b.seconds);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RestoredSparsifierMatchesNeverRestartedBitForBit) {
  Rng rng(43);
  const Graph g = grid_2d(10, 10, WeightModel::log_uniform(0.2, 5.0), &rng);
  Rng script_rng(103);
  testing::ScriptOptions script_opts;
  script_opts.batches = 4;
  const auto script = testing::make_update_script(g, script_rng, script_opts);

  // Reference: one process lives through all four batches.
  DynamicSparsifier reference(g, dynamic_options());
  for (const UpdateBatch& batch : script) reference.apply(batch);

  // Checkpointed: live through two batches, snapshot through the .sspc
  // serializer (not just in memory), "crash", fast-forward a fresh copy
  // of the base graph, restore, replay the tail.
  const std::string path = tmp_path("ckpt_restore", ".sspc");
  {
    DynamicSparsifier first_life(g, dynamic_options());
    first_life.apply(script[0]);
    first_life.apply(script[1]);
    storage::SparsifierCheckpoint ckpt;
    ckpt.commits = 2;
    ckpt.state = first_life.restore_state();
    storage::save_checkpoint(path, ckpt);
  }
  const storage::SparsifierCheckpoint loaded = storage::load_checkpoint(path);
  Graph replayed = g;
  for (std::uint64_t b = 0; b < loaded.commits; ++b) {
    apply_batch_to_graph(replayed, script[static_cast<std::size_t>(b)]);
  }
  DynamicSparsifier second_life(replayed, dynamic_options(), loaded.state);
  EXPECT_EQ(second_life.batches_applied(), Index{3});  // build + 2 commits
  for (std::size_t b = loaded.commits; b < script.size(); ++b) {
    second_life.apply(script[b]);
  }

  EXPECT_EQ(second_life.result().edges, reference.result().edges);
  EXPECT_EQ(second_life.result().sigma2_estimate,
            reference.result().sigma2_estimate);
  EXPECT_EQ(second_life.graph().num_edges(), reference.graph().num_edges());
  ASSERT_EQ(second_life.history().size(), reference.history().size());
  for (std::size_t i = 0; i < reference.history().size(); ++i) {
    EXPECT_EQ(second_life.history()[i].graph_edges,
              reference.history()[i].graph_edges);
    EXPECT_EQ(second_life.history()[i].sparsifier_edges,
              reference.history()[i].sparsifier_edges);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFilesNameByteOffsetAndField) {
  Rng rng(45);
  const Graph g = grid_2d(8, 8, WeightModel::log_uniform(0.2, 5.0), &rng);
  DynamicSparsifier dyn(g, dynamic_options());
  storage::SparsifierCheckpoint ckpt;
  ckpt.commits = 0;
  ckpt.state = dyn.restore_state();
  const std::string path = tmp_path("ckpt_bad", ".sspc");

  storage::save_checkpoint(path, ckpt);
  const std::uint32_t junk = 0x12345678u;
  patch_file(path, 0, &junk, 4);
  try {
    (void)storage::load_checkpoint(path);
    FAIL() << "wrong magic must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), 0u);
    EXPECT_EQ(e.field(), "magic");
  }

  storage::save_checkpoint(path, ckpt);
  const std::uint32_t v9 = 9;
  patch_file(path, 4, &v9, 4);
  try {
    (void)storage::load_checkpoint(path);
    FAIL() << "wrong version must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), 4u);
    EXPECT_EQ(e.field(), "version");
  }

  storage::save_checkpoint(path, ckpt);
  const std::uint64_t full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 8);
  EXPECT_THROW(storage::load_checkpoint(path), storage::SspbError);

  std::remove(path.c_str());
}

TEST(Checkpoint, RetiredStatsSlotsAreSkippedAndTheRouteSlotIsRangeChecked) {
  // Four history slots are retired (see put_stats in checkpoint.cpp):
  // written as 0, ignored on read, so files that carry values there still
  // restore. The old route slot stays range-checked.
  Rng rng(47);
  const Graph g = grid_2d(8, 8, WeightModel::log_uniform(0.2, 5.0), &rng);
  DynamicSparsifier dyn(g, dynamic_options());
  storage::SparsifierCheckpoint ckpt;
  ckpt.commits = 0;
  ckpt.state = dyn.restore_state();
  const std::string path = tmp_path("ckpt_retired", ".sspc");
  const std::uint64_t record =
      88 + 8 * (ckpt.state.tree_edges.size() + ckpt.state.offtree_edges.size());

  storage::save_checkpoint(path, ckpt);
  const std::int64_t count_a = 3;
  const std::int64_t count_b = 5;
  const double fraction = 0.5;
  const std::uint64_t route = 2;
  patch_file(path, record + 4 * 8, &count_a, 8);
  patch_file(path, record + 5 * 8, &count_b, 8);
  patch_file(path, record + 8 * 8, &fraction, 8);
  patch_file(path, record + 11 * 8, &route, 8);
  const storage::SparsifierCheckpoint back = storage::load_checkpoint(path);
  ASSERT_EQ(back.state.history.size(), 1u);
  EXPECT_EQ(back.state.history[0].sparsifier_edges,
            ckpt.state.history[0].sparsifier_edges);
  EXPECT_EQ(back.state.history[0].seconds, ckpt.state.history[0].seconds);
  const DynamicSparsifier restored(g, dynamic_options(), back.state);
  EXPECT_EQ(restored.result().edges, dyn.result().edges);

  const std::uint64_t bad_route = 3;
  patch_file(path, record + 11 * 8, &bad_route, 8);
  try {
    (void)storage::load_checkpoint(path);
    FAIL() << "route slot out of range must throw";
  } catch (const storage::SspbError& e) {
    EXPECT_EQ(e.byte_offset(), record + 11 * 8);
    EXPECT_EQ(e.field(), "history.route");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ssp
