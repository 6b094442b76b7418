#pragma once

/// \file component_tasks.hpp
/// Internal to the scale layer (src/scale/): the shared per-component
/// engine machinery of `PartitionedSparsifier` and
/// `HierarchicalSparsifier`. Both drivers decompose their work units
/// (partition blocks, hierarchy leaves, the cut graph) into connected
/// components, run one single-threaded engine per component fanned out
/// over the global `ThreadPool`, and fold the component outcomes into a
/// `BlockStats`. Determinism lives here: component c of stream s draws
/// its seed from `parent.split(s).split(c)`, tasks own their output
/// slots, and selection order is a pure function of the inputs — never
/// of the executing thread. Stage times come from src/obs/ alone: each
/// task runs inside a `scale.component` span tagged with its block id, and
/// its engine records its own stages into the `engine.stage.*` counters
/// and spans.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/sparsifier.hpp"
#include "graph/subgraph.hpp"
#include "scale/partitioned_sparsifier.hpp"
#include "util/rng.hpp"

namespace ssp::scale_detail {

/// One unit of engine work: a connected component of a work unit (block,
/// leaf, or cut graph), with its edge map into host edge ids and derived
/// seed. Tasks are movable (they live in a vector), so the working graph
/// and edge map are resolved through accessors instead of raw
/// self-pointers: `parent` points at stable storage (the caller's
/// subgraph), `owned` holds a per-component extraction when the parent
/// subgraph is disconnected.
struct ComponentTask {
  Index block = 0;  ///< work-unit id (block/leaf), or kCutBlock
  const Subgraph* parent = nullptr;  ///< caller's subgraph (stable)
  std::optional<Subgraph> owned;     ///< per-component extraction, if any
  std::vector<EdgeId> composed_map;  ///< component → host ids, if owned
  const SparsifyOptions* base_opts = nullptr;
  std::uint64_t seed = 0;
  // Outputs (each task writes only its own slots).
  std::vector<EdgeId> selected;  ///< host edge ids kept
  double sigma2 = 0.0;
  bool reached = true;
  bool is_tree = false;
  double seconds = 0.0;

  [[nodiscard]] const Graph& graph() const {
    return owned.has_value() ? owned->graph : parent->graph;
  }
  [[nodiscard]] const std::vector<EdgeId>& edge_map() const {
    return owned.has_value() ? composed_map : parent->edge_to_global;
  }
};

/// Appends one task per connected component of `sub` (a block, leaf, or
/// the cut graph). Component c draws its seed from
/// `parent.split(stream_id).split(c)`; single-component subgraphs
/// reference `sub` directly instead of re-extracting. `sub` and
/// `base_opts` must stay alive and unmoved until the tasks have run.
void make_tasks(const Subgraph& sub, Index block, std::uint64_t stream_id,
                const Rng& parent, const SparsifyOptions& base_opts,
                std::vector<ComponentTask>& tasks);

/// Executes `tasks[first, last)` on the global pool; each task owns its
/// output slots, so the result is independent of the thread count. Tree
/// components (κ = 1) are kept verbatim without paying for an engine;
/// all others run a single-threaded engine with the task's seed.
void run_tasks(std::vector<ComponentTask>& tasks, std::size_t first,
               std::size_t last, int threads);

/// Folds the tasks carrying `block` into that work unit's BlockStats.
[[nodiscard]] BlockStats fold_stats(Index block, const Subgraph& sub,
                                    const std::vector<ComponentTask>& tasks);

}  // namespace ssp::scale_detail
