#pragma once

/// \file hierarchical_sparsifier.hpp
/// The scale layer's one driver: it cuts a graph into units the
/// single-graph engine can take, runs one engine per connected component
/// of each unit, and stitches the selections back together. Partitioned
/// runs (k blocks) and out-of-core runs (an mmap'd `.sspb` under a memory
/// budget, storage/mapped_graph.hpp) share the same pipeline:
///
///  1. **Split**: a deterministic BFS over the graph (roots in ascending
///     vertex id, neighbors in CSR order) counts G's components and
///     yields a locality-preserving vertex order. Units then come from
///     exactly one source: a caller-supplied per-vertex assignment,
///     recursive bisection into `partitions > 1` blocks, or the budget
///     split — ranges of the BFS order cut at their degree-sum midpoint
///     until each estimated heap subgraph fits `memory_budget_bytes`
///     (0 = unbounded, one unit).
///  2. **Whole-graph path**: one connected unit runs the whole-graph
///     engine with `block` verbatim, so the edge list is bit-identical to
///     `Sparsifier::run()` (the k = 1 contract). A heap `Graph` is used
///     in place; a view is materialized once.
///  3. **Waves**: otherwise units are processed in waves — the longest
///     run of consecutive units whose summed `estimate_subgraph_bytes`
///     fits the budget, at least one unit. Each wave is extracted in one
///     `partition_subgraphs` pass (graph/subgraph.hpp) and its connected
///     components run single-threaded engines fanned out over the global
///     ThreadPool; components that are already trees are kept verbatim
///     (κ = 1). Only one wave's subgraphs live on the heap at a time.
///  4. **Cut**: inter-unit edges per `CutPolicy`: keep them all (the
///     default) or filter them with an engine pass over the cut graph,
///     run with the unit passes' `block` options.
///  5. **Stitch**: unit selections in unit order, then the kept cut
///     edges. Every unit component and every cut-graph component keeps a
///     spanning tree, so the sparsifier connects exactly what G connects
///     by construction; an always-on union-find check asserts it.
///     Disconnected inputs are supported — unlike the whole-graph engine.
///
/// Determinism: the result is a pure function of (graph, assignment or
/// options-without-threads). The budget split depends only on CSR
/// adjacency, identical for heap and mmap producers of the same logical
/// graph. Component c of unit u draws its seed from
/// `Rng(block.seed).split(u).split(c)`; the cut pass derives from stream
/// k (the unit count) so it never collides with a unit stream. Neither
/// `threads` nor the wave grouping changes the result.
///
/// Telemetry lives in src/obs/ only: each stage (partition, extract,
/// block-sparsify, cut-sparsify, stitch) adds its wall time to
/// `scale.stage.<stage>.ns` and emits a `scale.<stage>` span once per run
/// (extract and block-sparsify sum over waves); each component engine runs
/// inside a `scale.component` span carrying its unit id.
///
/// Memory: the budget bounds the subgraphs of one wave, not the driver's
/// O(n) bookkeeping (BFS order, unit ids, union-find) nor the cut edge
/// list.
///
/// σ² bound: the units and the cut pass sparsify disjoint edge sets of G,
/// so L_P ≼ L_G ≼ (max piece λ_max) · L_P. The global κ(L_G, L_P) is thus
/// at most the largest unit or cut-pass κ (keep-all's cut: κ = 1) when
/// every piece's λ_min is 1 — its dropped edges alone do not connect it,
/// the usual case — and is as certified as those estimates are.
/// `estimate_sparsifier_quality` (scale/quality.hpp) measures it directly.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/sparsifier.hpp"
#include "graph/graph_view.hpp"

namespace ssp::storage {
class MappedGraph;
}  // namespace ssp::storage

namespace ssp {

/// What happens to the inter-unit (cut) edges.
enum class CutPolicy {
  kKeepAll,  ///< keep every cut edge (densest, κ = 1 on the cut)
  kFilter,   ///< engine pass over the cut graph
};

/// Recursion guard of the budget split: a range at this depth becomes a
/// leaf even when it exceeds the budget (as does any range of one vertex).
inline constexpr Index kMaxSplitDepth = 48;

struct HierarchicalOptions {
  /// Recursive-bisection block count; > 1 splits by bisection instead of
  /// the budget (needs a heap `Graph`). Ignored with a user assignment.
  Index partitions = 1;
  /// Heap budget in bytes for one wave of unit subgraphs (edge list + CSR
  /// arrays + id maps, conservatively estimated); without partitions or
  /// an assignment it also drives the split. 0 = unbounded.
  std::uint64_t memory_budget_bytes = 0;
  CutPolicy cut_policy = CutPolicy::kKeepAll;
  /// Engine options for the unit passes and the kFilter cut pass;
  /// `block.seed` roots every derived stream. The whole-graph path uses
  /// `block` verbatim (threads included); inside units engines run
  /// single-threaded.
  SparsifyOptions block;
  /// Concurrent component engines (0 = `ssp::default_threads()`). Changes
  /// wall time only, never the result.
  int threads = 0;

  /// Throws std::invalid_argument on the first violated constraint
  /// (including `block.validate()`).
  void validate() const;

  HierarchicalOptions& with_partitions(Index k);
  HierarchicalOptions& with_memory_budget_bytes(std::uint64_t bytes);
  HierarchicalOptions& with_cut_policy(CutPolicy policy);
  HierarchicalOptions& with_block_options(SparsifyOptions opts);
  HierarchicalOptions& with_threads(int n);
};

/// Sentinel `BlockStats::block` value for the cut pass.
inline constexpr Index kCutBlock = -1;

/// Telemetry of one unit (or the cut pass) of a run.
struct BlockStats {
  Index block = 0;        ///< unit id, or kCutBlock for the cut pass
  Vertex vertices = 0;    ///< vertices in the unit subgraph
  EdgeId edges = 0;       ///< edges in the unit subgraph
  EdgeId kept_edges = 0;  ///< edges selected into the global sparsifier
  Index components = 0;   ///< connected components processed
  Index tree_components = 0;  ///< components kept verbatim (already trees)
  double sigma2_estimate = 0.0;  ///< worst (max) component estimate
  bool reached_target = true;    ///< all engine components reached σ²
  double seconds = 0.0;          ///< wall time summed over components
};

struct HierarchicalResult {
  /// Host edge ids of the sparsifier: unit selections in unit order (each
  /// engine's backbone-first order preserved), then kept cut edges
  /// (ascending host id for kKeepAll).
  std::vector<EdgeId> edges;
  Index leaves = 0;         ///< units of the split (blocks or leaves)
  Index depth = 0;          ///< deepest budget-split leaf (0 = unsplit)
  EdgeId cut_edges = 0;     ///< inter-unit edges of G
  EdgeId cut_edges_kept = 0;  ///< of them in `edges`
  bool whole_graph = false;   ///< whole-graph path taken
  /// Per-unit telemetry in unit id order; one entry on the whole-graph
  /// path.
  std::vector<BlockStats> leaf_stats;
  std::optional<BlockStats> cut_stats;  ///< kFilter cut pass only
  double total_seconds = 0.0;

  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges.size());
  }
};

/// The scale driver. Bind to a finalized graph (which must outlive the
/// driver), configure, call `run()` once. Not copyable; API-level
/// single-threaded like the engine (internally fans out).
class HierarchicalSparsifier {
 public:
  /// A view, typically an mmap'd `.sspb`; `opts.partitions` must be 1.
  explicit HierarchicalSparsifier(GraphView g, HierarchicalOptions opts = {});

  /// A heap graph; the whole-graph path runs on `g` without a copy.
  explicit HierarchicalSparsifier(const Graph& g,
                                  HierarchicalOptions opts = {});

  /// Caller-supplied per-vertex unit assignment: `assignment[v]` in
  /// [0, k) with k = max id + 1; every id in [0, k) must be non-empty.
  /// Singleton units are legal (their cut edges still connect them).
  /// `opts.partitions` is ignored.
  HierarchicalSparsifier(const Graph& g, std::vector<Vertex> assignment,
                         HierarchicalOptions opts = {});

  HierarchicalSparsifier(const HierarchicalSparsifier&) = delete;
  HierarchicalSparsifier& operator=(const HierarchicalSparsifier&) = delete;

  /// Called after the BFS ordering, after split + cut scan, after each
  /// wave, and after materializing a view on the whole-graph path — wire
  /// `MappedGraph::release_pages` here to drop the page-cache working set
  /// between passes. Must outlive the driver or be cleared.
  void set_release_hook(std::function<void()> hook) {
    release_hook_ = std::move(hook);
  }

  /// Runs the pipeline to completion. Idempotent: subsequent calls return
  /// the cached result.
  const HierarchicalResult& run();

  /// Moves the result out of a finished driver without copying the edge
  /// list; the driver is spent afterwards.
  [[nodiscard]] HierarchicalResult take_result() {
    return std::move(result_);
  }

  /// Conservative heap footprint estimate (bytes) of materializing a
  /// subgraph with `vertices` vertices and `directed_entries` CSR entries
  /// (= twice its edge count). Exposed so tools and benches can report
  /// the same number the splitter compares against the budget.
  [[nodiscard]] static std::uint64_t estimate_subgraph_bytes(
      Vertex vertices, std::uint64_t directed_entries);

  /// The budget split on its own: per-vertex leaf ids, a pure function of
  /// CSR adjacency and `budget_bytes` (0 = unbounded).
  [[nodiscard]] static std::vector<Vertex> budget_split(
      GraphView g, std::uint64_t budget_bytes);

 private:
  void release() const {
    if (release_hook_) release_hook_();
  }
  void run_whole_graph();
  void run_units(std::vector<Vertex> unit_of, Index units, Index roots,
                 double split_seconds);

  GraphView g_;
  const Graph* heap_ = nullptr;  ///< set for heap graphs
  HierarchicalOptions opts_;
  std::optional<std::vector<Vertex>> assignment_;
  std::function<void()> release_hook_;
  HierarchicalResult result_;
  bool done_ = false;
};

/// One-shot wrapper over a heap graph.
[[nodiscard]] HierarchicalResult hierarchical_sparsify(
    const Graph& g, const HierarchicalOptions& opts = {});

/// One-shot wrapper over an mmap'd graph with the release hook wired to
/// `g.release_pages()` — the out-of-core entry point of ssp_sparsify and
/// bench_outofcore.
[[nodiscard]] HierarchicalResult hierarchical_sparsify(
    const storage::MappedGraph& g, const HierarchicalOptions& opts = {});

}  // namespace ssp
