#pragma once

/// \file dynamic_sparsifier.hpp
/// Dynamic update layer: batched edge insertions / deletions / reweights
/// applied incrementally to a live sparsifier, instead of a cold
/// `Sparsifier::run()` from scratch after every change — the
/// continuously-changing-traffic workflow the GRASS-style
/// spectral-perturbation literature targets.
///
/// `ssp::DynamicSparsifier` owns the evolving graph plus its current
/// sparsifier state and applies `UpdateBatch`es:
///
///  1. **Validate** the whole batch up front (ids, weights, and — via one
///     union-find pass over the surviving edges — connectivity), so a bad
///     batch throws before any state changes.
///  2. **Apply + repair**: weights are patched in place, deletions are
///     classified against the persistent backbone (tree-edge deletions
///     trigger spanning-tree repair via union-find + strongest-crossing
///     reconnection; off-tree churn touches nothing), insertions run a
///     path exchange each (tree/tree_repair.hpp).
///  3. **Route** the re-sparsification: reweight-only batches that leave
///     the tree untouched take the `resparsify()`-style warm path; any
///     topology churn re-roots the repaired backbone; and when the dirty
///     fraction (touched edges / final edge count) reaches
///     `rebuild_threshold`, the layer falls back to a cold rebuild
///     (backbone recomputed from scratch by Kruskal). All three routes
///     feed `Sparsifier::rebind()`, which reuses the engine workspace.
///  4. **Sparsify**: the engine densifies to the σ² target and the new
///     result replaces the old one.
///
/// Determinism contract (incremental ≡ cold): the backbone is pinned to
/// the **canonical maximum-weight spanning tree** — unique under the
/// (weight desc, edge id asc) total order — which is the one backbone
/// whose incremental repair provably lands on the same tree as a cold
/// Kruskal rebuild (`DynamicOptions::base.backbone` is therefore
/// ignored). Batch `b` (the constructor's initial build is batch 0) seeds
/// its engine run with the derived stream `Rng(base.seed).split(b)`, so:
///
///  * after any batch, `result()` is **bit-identical** to
///    `sparsify(graph(), cold_equivalent_options())` — a cold rebuild on
///    the final graph — whatever mix of incremental routes produced it
///    (with `warm_refine` off, the default);
///  * `rebuild_threshold` changes wall time only, never a bit of output:
///    the cold-rebuild route recomputes by Kruskal exactly the tree the
///    repair path maintains;
///  * thread counts change wall time only (the engine's own contract,
///    sparsifier_engine.hpp, carries over verbatim);
///  * distinct batches draw from decorrelated split streams, so replaying
///    a journal is reproducible batch by batch.
///
/// `with_warm_refine(true)` trades that bit-exactness for speed: the
/// previous off-tree selection is pre-accepted via `rebind()`'s
/// `keep_offtree`, so an update whose sparsifier still meets the σ²
/// target finishes after a single estimation round. Results then drift
/// from the cold rebuild (they keep edges a cold run would re-rank) but
/// stay spectrally equivalent — κ still converges to the same σ² target,
/// and `rebuild_threshold` bounds the drift by periodically resetting to
/// the cold path. The differential harness (tests/harness.hpp) checks
/// both regimes.
///
/// **Localized re-estimation** (`base.estimation =
/// EstimationMode::kLocalized`) makes the *exact* route fast without
/// giving up a bit of the cold contract. What is cached: the engine keeps
/// one double per off-tree edge — its tree stretch w_e·R_T(u,v), the
/// localized heat (core/stretch.hpp) — across batches. When caches
/// invalidate: the repaired `MaxWeightTree` records every previous-tree
/// edge that was reweighted, swapped out, or deleted
/// (tree/tree_repair.hpp). Because the final tree keeps every
/// previous-tree edge that is *not* recorded, an edge's tree path — and
/// with it the cached stretch — changed iff its path in the PREVIOUS
/// tree crossed a recorded edge. This layer tests exactly that on the
/// outgoing backbone before replacing it: label each vertex with its
/// innermost recorded ancestor edge in one O(n) pass, and flag an edge
/// dirty iff its endpoints' labels differ or the batch touched the edge
/// itself (inserted/reweighted). The rule is exact, not a
/// detour-path over-approximation: a clean flag proves the old and new
/// paths are the same edges at the same weights. Only flagged heats are
/// recomputed; everything
/// else is reused verbatim through `rebind()`'s HeatWarmStart. The
/// kRebuild route and `resparsify()`-style weight rebinds drop the cache
/// wholesale. Why bit-parity survives: the canonical stretch walk is a
/// pure function of the edge's own rooted tree path, so an edge whose
/// path the batch provably did not touch reproduces the cold-computed
/// double exactly — reuse returns the same bits recomputation would, and
/// the filter consumes an embedding indistinguishable from a cold run's.
/// `UpdateStats::heats_reused/heats_recomputed` and the
/// `dynamic.heats.*` metrics report the split per batch.
///
/// The vertex set is fixed for the lifetime of the sparsifier; deletions
/// that would disconnect the graph are rejected.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "tree/tree_repair.hpp"
#include "util/union_find.hpp"

namespace ssp {

/// Weight replacement for one existing edge.
struct WeightUpdate {
  EdgeId edge = kInvalidEdge;
  double weight = 0.0;  ///< new weight (> 0, finite)
};

/// One batch of updates. `remove` and `reweight` reference edge ids of
/// the graph *before* the batch; `insert` edges are appended after the
/// removals compact the id space (so the k-th inserted edge gets id
/// `graph().num_edges() - insert.size() + k` once the batch lands).
struct UpdateBatch {
  std::vector<Edge> insert;
  std::vector<EdgeId> remove;
  std::vector<WeightUpdate> reweight;

  [[nodiscard]] bool empty() const {
    return insert.empty() && remove.empty() && reweight.empty();
  }
  [[nodiscard]] EdgeId size() const {
    return static_cast<EdgeId>(insert.size() + remove.size() +
                               reweight.size());
  }
};

/// How a batch reached the engine.
enum class UpdateRoute {
  kResparsify,  ///< reweight-only, tree untouched — pure warm start
  kTreeRepair,  ///< incremental backbone repair, then rebind
  kRebuild,     ///< dirty fraction >= threshold — cold Kruskal rebuild
};

/// Stages reported through `DynamicObserver::on_dynamic_stage`.
enum class DynamicStage {
  kValidate,    ///< batch validation incl. connectivity pre-check
  kApplyGraph,  ///< graph mutation + CSR rebuild
  kTreeRepair,  ///< backbone repair / cold Kruskal + re-rooting
  kRebind,      ///< engine warm-start rebind
  kSparsify,    ///< engine densification run
};

/// Number of DynamicStage values (for per-stage accumulation arrays).
inline constexpr int kNumDynamicStages = 5;

/// Telemetry of one applied batch (or the initial build, batch 0).
struct UpdateStats {
  Index batch = 0;           ///< 0 = initial build
  EdgeId inserted = 0;
  EdgeId removed = 0;
  EdgeId reweighted = 0;
  EdgeId tree_removed = 0;   ///< removed edges that were tree edges
  EdgeId tree_swaps = 0;     ///< backbone exchange/reconnection repairs
  double dirty_fraction = 0.0;
  UpdateRoute route = UpdateRoute::kRebuild;
  EdgeId graph_edges = 0;       ///< |E| after the batch
  EdgeId sparsifier_edges = 0;  ///< |Es| after re-sparsification
  double sigma2_estimate = 0.0;
  bool reached_target = false;
  /// Localized-estimation reuse accounting (EstimationMode::kLocalized
  /// only; zeros in power mode): off-tree heats reused from the previous
  /// batch's cache vs recomputed because the batch dirtied them.
  EdgeId heats_reused = 0;
  EdgeId heats_recomputed = 0;
  double seconds = 0.0;
  /// Wall seconds per DynamicStage for this batch.
  std::array<double, kNumDynamicStages> stage_seconds{};
};

/// Telemetry hook mirroring `ScaleObserver`: `on_dynamic_stage` as each
/// stage of a batch finishes, then one `on_update` with the batch totals.
/// Callbacks run on the applying thread and must not re-enter the layer.
class DynamicObserver {
 public:
  virtual ~DynamicObserver() = default;
  virtual void on_dynamic_stage(DynamicStage /*stage*/, double /*seconds*/) {}
  virtual void on_update(const UpdateStats& /*stats*/) {}
};

struct DynamicOptions {
  /// Engine options for every (re-)sparsification. `base.seed` is the
  /// root of the per-batch split streams; `base.backbone` is ignored
  /// (the layer pins the canonical max-weight tree — see the file
  /// comment).
  SparsifyOptions base;
  /// Cold-rebuild fallback: a batch whose dirty fraction (touched edges /
  /// final edge count) is >= this rebuilds the backbone from scratch.
  /// 0 forces a rebuild every batch; > 1 never rebuilds. With
  /// `warm_refine` off this changes wall time only, never the result.
  double rebuild_threshold = 0.25;
  /// Pre-accept the previous off-tree selection instead of densifying
  /// from the bare tree (faster, spectrally equivalent, not bit-equal to
  /// a cold rebuild). Ignored on the kRebuild route.
  bool warm_refine = false;

  /// Full validation; throws std::invalid_argument on the first violated
  /// constraint (including `base.validate()`).
  void validate() const;

  DynamicOptions& with_base(SparsifyOptions opts);
  DynamicOptions& with_rebuild_threshold(double fraction);
  DynamicOptions& with_warm_refine(bool on);
};

/// Complete sparsifier state of a `DynamicSparsifier` at a batch
/// boundary — everything a fresh process needs to continue the update
/// stream bit-identically, *given the same graph* (reconstructed by
/// replaying the journal's graph mutations up to the same batch). This
/// is the payload `storage::save_checkpoint` serializes; the restoring
/// constructor consumes it without running a single engine round.
struct DynamicRestoreState {
  Vertex vertices = 0;  ///< graph shape check against the replayed graph
  EdgeId edges = 0;
  /// Canonical max-weight backbone (rooted tree-edge order,
  /// `SpanningTree::tree_edge_ids()` at capture time).
  std::vector<EdgeId> tree_edges;
  /// Accepted off-tree selection, in acceptance order (`result().edges`
  /// minus the tree prefix).
  std::vector<EdgeId> offtree_edges;
  /// Engine telemetry scalars of the captured terminal result.
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  double sigma2_estimate = 0.0;
  bool reached_target = false;
  StepStatus status = StepStatus::kConverged;
  /// Full per-batch telemetry log (restores history()/batches_applied(),
  /// and with them the per-batch seed derivation for future batches).
  std::vector<UpdateStats> history;
};

/// Dynamic sparsifier driver. Copies the input graph, runs the initial
/// sparsification (batch 0) eagerly, then applies batches in order. Not
/// copyable; API-level single-threaded like the engine (each batch fans
/// out internally per `base.threads`).
class DynamicSparsifier {
 public:
  /// Binds to a copy of `g` (finalized, connected, >= 2 vertices) and
  /// runs the initial sparsification (batch 0). Pass `observer` here —
  /// not only via set_observer() — to receive the initial build's
  /// telemetry too (the build completes before set_observer() could run).
  explicit DynamicSparsifier(const Graph& g, DynamicOptions opts = {},
                             DynamicObserver* observer = nullptr);

  /// Warm restore: binds to a copy of `g` (which must be the graph the
  /// checkpointed instance held — same vertex and edge counts, same ids;
  /// callers rebuild it by replaying the journal's graph mutations) and
  /// re-creates backbone, engine selection, and telemetry from `state`
  /// WITHOUT re-running the engine. Afterwards `result()`, `history()`,
  /// and every future `apply()` are bit-identical to the instance that
  /// produced the checkpoint — the foundation of the serving daemon's
  /// kill/restart warm path.
  DynamicSparsifier(const Graph& g, DynamicOptions opts,
                    const DynamicRestoreState& state,
                    DynamicObserver* observer = nullptr);

  /// Captures the full restore payload at the current batch boundary.
  [[nodiscard]] DynamicRestoreState restore_state() const;

  DynamicSparsifier(const DynamicSparsifier&) = delete;
  DynamicSparsifier& operator=(const DynamicSparsifier&) = delete;

  /// Attaches (or detaches, with nullptr) the telemetry observer; must
  /// outlive the driver or be detached first.
  void set_observer(DynamicObserver* observer) { observer_ = observer; }

  /// Applies one batch atomically: validation failures throw
  /// std::invalid_argument and leave graph, backbone, and sparsifier
  /// untouched. Returns this batch's telemetry (a copy; the full log
  /// stays in history()).
  UpdateStats apply(const UpdateBatch& batch);

  /// Single-kind conveniences, each one batch.
  UpdateStats insert_edges(std::span<const Edge> edges);
  UpdateStats delete_edges(std::span<const EdgeId> edge_ids);
  UpdateStats reweight_edges(std::span<const WeightUpdate> updates);

  /// The current (post-batch) graph. `result()` edge ids index into it.
  [[nodiscard]] const Graph& graph() const { return graph_; }

  /// The current sparsifier (engine result; backbone-first edge order).
  [[nodiscard]] const SparsifyResult& result() const;

  /// Telemetry of every batch applied so far, batch 0 first.
  [[nodiscard]] const std::vector<UpdateStats>& history() const {
    return history_;
  }

  /// Sum of history()[k].seconds, accumulated in batch order as batches
  /// apply (and on restore), so it equals the summed history bit for bit
  /// without rescanning it.
  [[nodiscard]] double total_seconds() const { return total_seconds_; }

  /// Batches applied, counting the initial build.
  [[nodiscard]] Index batches_applied() const {
    return static_cast<Index>(history_.size());
  }

  /// Options whose cold `sparsify(graph(), cold_equivalent_options())`
  /// reproduces `result()` bit for bit (warm_refine off): the base
  /// options with the canonical kMaxWeight backbone and the current
  /// batch's derived seed. The differential harness rests on this.
  [[nodiscard]] SparsifyOptions cold_equivalent_options() const;

  /// The engine seed batch `batch` draws for a layer rooted at
  /// `base_seed` — the single definition of the per-batch stream
  /// derivation (benches and external cold baselines use it too).
  [[nodiscard]] static std::uint64_t batch_seed(std::uint64_t base_seed,
                                                Index batch) {
    return Rng(base_seed).split(static_cast<std::uint64_t>(batch))();
  }

  [[nodiscard]] const DynamicOptions& options() const { return opts_; }

  /// The engine's localized per-edge heat cache (empty in power mode) —
  /// exposed so the differential tests can prove dirty-set correctness by
  /// diffing it bitwise against a cold stretch recompute after every
  /// batch. Indexed by current edge id; tree-edge slots unspecified.
  [[nodiscard]] std::span<const double> localized_heat_cache() const {
    return engine_->localized_heat_cache();
  }

 private:
  [[nodiscard]] std::uint64_t batch_seed(Index batch) const {
    return batch_seed(opts_.base.seed, batch);
  }
  /// Appends one batch's telemetry to the history and notifies the
  /// observer.
  void record(const UpdateStats& stats);
  void validate_batch(const UpdateBatch& batch) const;
  void rebuild_backbone_cold();
  void notify_stage(DynamicStage stage, double seconds,
                    UpdateStats& stats) const;
  /// Fills dirty_scratch_ (one flag per current edge id) from the tree's
  /// recorded previous-tree dirty edges + the batch-touched ids — the
  /// localized warm start's recompute set. Must run on the OUTGOING
  /// backbone (before it is re-emplaced): the labels are computed on the
  /// previous tree. `old_m` is the edge count before this batch's
  /// mutations and `remap` the compaction map from `Graph::remove_edges`
  /// (empty = identity). See the file comment for the exactness argument.
  void compute_dirty_mask(std::span<const EdgeId> touched_new_ids,
                          std::span<const EdgeId> remap, EdgeId old_m);

  DynamicOptions opts_;
  Graph graph_;
  std::optional<MaxWeightTree> tree_;      ///< persistent repaired backbone
  std::optional<SpanningTree> backbone_;   ///< rooted view, rebuilt per batch
  std::optional<Sparsifier> engine_;
  DynamicObserver* observer_ = nullptr;
  std::vector<UpdateStats> history_;
  double total_seconds_ = 0.0;  ///< see total_seconds()
  /// Connectivity pre-check scratch, reset() per batch instead of
  /// reallocated.
  mutable UnionFind uf_scratch_{0};
  // Localized dirty-set scratch, reused across batches.
  std::vector<char> dirty_scratch_;       ///< per new edge id
  std::vector<char> dirty_tree_scratch_;  ///< per OLD edge id (tree edges)
  std::vector<EdgeId> label_scratch_;     ///< innermost dirty ancestor edge
};

/// One-shot wrapper outcome: the final graph, its sparsifier, and the
/// per-batch telemetry.
struct DynamicResult {
  Graph graph;
  SparsifyResult result;
  std::vector<UpdateStats> history;
};

/// Replays `script` through a fresh `DynamicSparsifier` and returns the
/// final state.
[[nodiscard]] DynamicResult dynamic_sparsify(
    const Graph& g, std::span<const UpdateBatch> script,
    const DynamicOptions& opts = {});

/// Applies only the *graph* mutations of `batch` to `g` — reweights,
/// then inserts, then removals (with id compaction), then `finalize()`;
/// exactly the order `DynamicSparsifier::apply` mutates its copy, so a
/// sequence of batches replayed through this function reproduces the
/// dynamic layer's graph bit for bit without paying a single
/// re-sparsification. This is the fast-forward step of checkpoint
/// restore: replay the journal's graph mutations up to the checkpointed
/// batch, then hand the graph plus the stored `DynamicRestoreState` to
/// the restoring constructor.
void apply_batch_to_graph(Graph& g, const UpdateBatch& batch);

}  // namespace ssp
