#include "dynamic/dynamic_sparsifier.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/connectivity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tree/kruskal.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "util/union_find.hpp"

namespace ssp {

// ---- DynamicOptions --------------------------------------------------------

void DynamicOptions::validate() const {
  base.validate();
  SSP_REQUIRE(rebuild_threshold >= 0.0 && std::isfinite(rebuild_threshold),
              "DynamicOptions: rebuild_threshold must be finite and >= 0");
}

DynamicOptions& DynamicOptions::with_base(SparsifyOptions opts) {
  opts.validate();
  base = std::move(opts);
  return *this;
}

DynamicOptions& DynamicOptions::with_rebuild_threshold(double fraction) {
  SSP_REQUIRE(fraction >= 0.0 && std::isfinite(fraction),
              "DynamicOptions: rebuild_threshold must be finite and >= 0");
  rebuild_threshold = fraction;
  return *this;
}

DynamicOptions& DynamicOptions::with_warm_refine(bool on) {
  warm_refine = on;
  return *this;
}

// ---- DynamicSparsifier -----------------------------------------------------

DynamicSparsifier::DynamicSparsifier(const Graph& g, DynamicOptions opts,
                                     DynamicObserver* observer)
    : opts_(std::move(opts)), graph_(g), observer_(observer) {
  opts_.validate();
  SSP_REQUIRE(g.finalized(), "DynamicSparsifier: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 2, "DynamicSparsifier: need >= 2 vertices");
  SSP_REQUIRE(is_connected(g), "DynamicSparsifier: graph must be connected");

  UpdateStats stats;
  stats.batch = 0;
  stats.dirty_fraction = 1.0;
  stats.route = UpdateRoute::kRebuild;

  WallTimer timer;
  backbone_ = max_weight_spanning_tree(graph_);
  tree_.emplace(graph_, backbone_->tree_edge_ids());
  notify_stage(DynamicStage::kTreeRepair, timer.seconds(), stats);

  timer.reset();
  SparsifyOptions engine_opts = opts_.base;
  engine_opts.seed = batch_seed(0);
  engine_.emplace(graph_, *backbone_, std::move(engine_opts));
  notify_stage(DynamicStage::kRebind, timer.seconds(), stats);

  timer.reset();
  engine_->run();
  notify_stage(DynamicStage::kSparsify, timer.seconds(), stats);

  const SparsifyResult& r = engine_->result();
  stats.graph_edges = graph_.num_edges();
  stats.sparsifier_edges = r.num_edges();
  stats.sigma2_estimate = r.sigma2_estimate;
  stats.reached_target = r.reached_target;
  for (const double s : stats.stage_seconds) stats.seconds += s;
  record(stats);
}

DynamicSparsifier::DynamicSparsifier(const Graph& g, DynamicOptions opts,
                                     const DynamicRestoreState& state,
                                     DynamicObserver* observer)
    : opts_(std::move(opts)), graph_(g), observer_(observer) {
  opts_.validate();
  SSP_REQUIRE(g.finalized(), "DynamicSparsifier: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 2, "DynamicSparsifier: need >= 2 vertices");
  SSP_REQUIRE(is_connected(g), "DynamicSparsifier: graph must be connected");
  SSP_REQUIRE(state.vertices == g.num_vertices() &&
                  state.edges == g.num_edges(),
              "restore: graph shape does not match the checkpoint (replay "
              "the journal to the checkpointed batch first)");
  SSP_REQUIRE(!state.history.empty(),
              "restore: checkpoint must include batch 0");

  // Backbone and repair state come straight from the checkpoint: the
  // stored ids are the canonical max-weight tree on this graph, so the
  // rebuilt MaxWeightTree continues repairing exactly where the
  // checkpointed instance left off (incremental ≡ cold contract).
  tree_.emplace(graph_, state.tree_edges);
  const std::span<const EdgeId> canon = tree_->canonical_edge_ids();
  backbone_.emplace(graph_, std::vector<EdgeId>(canon.begin(), canon.end()));

  // Re-arm the engine on the stored selection: rebind() pre-accepts the
  // off-tree keeps under the checkpointed batch's seed, restore_result()
  // stamps the terminal telemetry — no densification rounds run.
  const Index last_batch = static_cast<Index>(state.history.size()) - 1;
  SparsifyOptions engine_opts = opts_.base;
  engine_opts.seed = batch_seed(last_batch);
  engine_.emplace(graph_, *backbone_, std::move(engine_opts));
  engine_->rebind(graph_, *backbone_, batch_seed(last_batch),
                  state.offtree_edges);
  engine_->restore_result(state.lambda_min, state.lambda_max,
                          state.sigma2_estimate, state.reached_target,
                          state.status);
  history_ = state.history;
  for (const UpdateStats& s : history_) total_seconds_ += s.seconds;
}

DynamicRestoreState DynamicSparsifier::restore_state() const {
  DynamicRestoreState state;
  state.vertices = graph_.num_vertices();
  state.edges = graph_.num_edges();
  const auto tree_ids = backbone_->tree_edge_ids();
  state.tree_edges.assign(tree_ids.begin(), tree_ids.end());
  const SparsifyResult& r = engine_->result();
  state.offtree_edges.assign(
      r.edges.begin() + static_cast<std::ptrdiff_t>(r.tree_edges.size()),
      r.edges.end());
  state.lambda_min = r.lambda_min;
  state.lambda_max = r.lambda_max;
  state.sigma2_estimate = r.sigma2_estimate;
  state.reached_target = r.reached_target;
  state.status = engine_->status();
  state.history = history_;
  return state;
}

const SparsifyResult& DynamicSparsifier::result() const {
  return engine_->result();
}

SparsifyOptions DynamicSparsifier::cold_equivalent_options() const {
  SparsifyOptions opts = opts_.base;
  opts.backbone = BackboneKind::kMaxWeight;
  opts.seed = batch_seed(static_cast<Index>(history_.size()) - 1);
  return opts;
}

namespace {

// Indexed by DynamicStage; keep in sync with the enum in the header.
constexpr const char* kDynSpanName[kNumDynamicStages] = {
    "dynamic.validate", "dynamic.apply-graph", "dynamic.tree-repair",
    "dynamic.rebind", "dynamic.sparsify"};
constexpr obs::MetricId kDynStageNs[kNumDynamicStages] = {
    "dynamic.stage.validate.ns", "dynamic.stage.apply-graph.ns",
    "dynamic.stage.tree-repair.ns", "dynamic.stage.rebind.ns",
    "dynamic.stage.sparsify.ns"};

}  // namespace

void DynamicSparsifier::notify_stage(DynamicStage stage, double seconds,
                                     UpdateStats& stats) const {
  stats.stage_seconds[static_cast<std::size_t>(stage)] += seconds;
  // Telemetry only — consumes no RNG and never feeds back into routing.
  const auto idx = static_cast<int>(stage);
  obs::counter_add(kDynStageNs[idx], static_cast<std::uint64_t>(seconds * 1e9));
  obs::TraceScope span(kDynSpanName[idx], seconds);
  if (observer_ != nullptr) observer_->on_dynamic_stage(stage, seconds);
}

void DynamicSparsifier::validate_batch(const UpdateBatch& batch) const {
  const EdgeId m = graph_.num_edges();
  std::vector<char> touched(static_cast<std::size_t>(m), 0);
  for (const EdgeId e : batch.remove) {
    SSP_REQUIRE(e >= 0 && e < m, "apply: remove id out of range");
    SSP_REQUIRE(touched[static_cast<std::size_t>(e)] == 0,
                "apply: duplicate remove id");
    touched[static_cast<std::size_t>(e)] = 1;
  }
  for (const WeightUpdate& wu : batch.reweight) {
    SSP_REQUIRE(wu.edge >= 0 && wu.edge < m,
                "apply: reweight id out of range");
    SSP_REQUIRE(touched[static_cast<std::size_t>(wu.edge)] == 0,
                "apply: edge removed or reweighted twice in one batch");
    touched[static_cast<std::size_t>(wu.edge)] = 1;
    SSP_REQUIRE(wu.weight > 0.0 && std::isfinite(wu.weight),
                "apply: reweight value must be positive and finite");
  }
  const Vertex n = graph_.num_vertices();
  for (const Edge& e : batch.insert) {
    SSP_REQUIRE(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                "apply: insert endpoint out of range");
    SSP_REQUIRE(e.u != e.v, "apply: insert would create a self-loop");
    SSP_REQUIRE(e.weight > 0.0 && std::isfinite(e.weight),
                "apply: insert weight must be positive and finite");
  }
  if (batch.remove.empty()) return;
  // Connectivity pre-check so a disconnecting batch is rejected before any
  // state mutates: the surviving edges plus the inserted ones must still
  // span one component.
  UnionFind& uf = uf_scratch_;
  uf.reset(static_cast<Index>(n));
  for (EdgeId e = 0; e < m; ++e) {
    // `touched` marks removals and reweights; reweighted edges survive.
    if (touched[static_cast<std::size_t>(e)] != 0) continue;
    const Edge& edge = graph_.edge(e);
    uf.unite(static_cast<Index>(edge.u), static_cast<Index>(edge.v));
  }
  for (const WeightUpdate& wu : batch.reweight) {
    const Edge& edge = graph_.edge(wu.edge);
    uf.unite(static_cast<Index>(edge.u), static_cast<Index>(edge.v));
  }
  for (const Edge& e : batch.insert) {
    uf.unite(static_cast<Index>(e.u), static_cast<Index>(e.v));
  }
  SSP_REQUIRE(uf.num_sets() == 1, "apply: batch would disconnect the graph");
}

void DynamicSparsifier::compute_dirty_mask(
    std::span<const EdgeId> touched_new_ids, std::span<const EdgeId> remap,
    EdgeId old_m) {
  // Runs on the OUTGOING backbone_ — still the previous batch's tree,
  // over the previous edge numbering. The final tree keeps every
  // previous-tree edge the repair did not record, so a surviving edge's
  // path (and cached stretch) changed iff its PREVIOUS-tree path crossed
  // a recorded edge — an exact rule, tested with labels instead of
  // per-edge path walks.
  const EdgeId new_m = graph_.num_edges();
  const Vertex n = graph_.num_vertices();
  dirty_scratch_.assign(static_cast<std::size_t>(new_m), 0);
  dirty_tree_scratch_.assign(static_cast<std::size_t>(old_m), 0);
  for (const EdgeId e : tree_->dirty_tree_edges()) {
    // Ids >= old_m are same-batch inserts that were swapped out again;
    // they were never previous-tree edges and are covered by the
    // touched-id sweep below.
    if (e < old_m) dirty_tree_scratch_[static_cast<std::size_t>(e)] = 1;
  }

  // Innermost-dirty-ancestor labels over the previous tree's BFS order
  // (parents first): label[v] identifies the deepest recorded tree edge
  // on v's old root path; a path crosses a recorded edge iff its
  // endpoints' labels differ. One O(n) pass replaces per-edge walks.
  const auto parent = backbone_->parents();
  const auto parent_eid = backbone_->parent_edges();
  label_scratch_.assign(static_cast<std::size_t>(n), kInvalidEdge);
  for (const Vertex v : backbone_->bfs_order()) {
    const EdgeId pe = parent_eid[static_cast<std::size_t>(v)];
    if (pe == kInvalidEdge) continue;  // root keeps kInvalidEdge
    label_scratch_[static_cast<std::size_t>(v)] =
        dirty_tree_scratch_[static_cast<std::size_t>(pe)] != 0
            ? pe
            : label_scratch_[static_cast<std::size_t>(
                  parent[static_cast<std::size_t>(v)])];
  }

  // Label-test every surviving pre-batch edge at its post-compaction id.
  // Endpoints are compaction-invariant, so the new edge record serves.
  // (Slots that are tree edges in the NEW tree are never read by the
  // warm start — flag values there are irrelevant; previous-tree edges
  // that left the tree are recorded, so the test flags them dirty.)
  for (EdgeId e = 0; e < old_m; ++e) {
    const EdgeId ne = remap.empty() ? e : remap[static_cast<std::size_t>(e)];
    if (ne == kInvalidEdge) continue;  // removed this batch
    const Edge& edge = graph_.edge(ne);
    if (label_scratch_[static_cast<std::size_t>(edge.u)] !=
        label_scratch_[static_cast<std::size_t>(edge.v)]) {
      dirty_scratch_[static_cast<std::size_t>(ne)] = 1;
    }
  }

  // Batch-touched edges (reweighted / inserted) are dirty regardless of
  // their path: their own weight changed or they have no cache slot.
  for (const EdgeId e : touched_new_ids) {
    dirty_scratch_[static_cast<std::size_t>(e)] = 1;
  }
}

void DynamicSparsifier::rebuild_backbone_cold() {
  backbone_ = max_weight_spanning_tree(graph_);
  tree_.emplace(graph_, backbone_->tree_edge_ids());
}

UpdateStats DynamicSparsifier::apply(const UpdateBatch& batch) {
  UpdateStats stats;
  stats.batch = static_cast<Index>(history_.size());
  stats.inserted = static_cast<EdgeId>(batch.insert.size());
  stats.removed = static_cast<EdgeId>(batch.remove.size());
  stats.reweighted = static_cast<EdgeId>(batch.reweight.size());

  WallTimer timer;
  validate_batch(batch);
  const EdgeId old_m = graph_.num_edges();  // pre-batch numbering bound
  const EdgeId final_edges = graph_.num_edges() - stats.removed +
                             stats.inserted;
  stats.dirty_fraction = static_cast<double>(batch.size()) /
                         static_cast<double>(std::max<EdgeId>(1, final_edges));
  const bool rebuild = stats.dirty_fraction >= opts_.rebuild_threshold;
  const bool localized =
      opts_.base.estimation == EstimationMode::kLocalized && !rebuild;
  notify_stage(DynamicStage::kValidate, timer.seconds(), stats);

  // Open the tree's dirty-tracking window before any repair hook runs;
  // batch-touched edge ids (reweighted / inserted, pre-removal numbering)
  // are collected alongside — both feed the localized warm start.
  if (!rebuild) tree_->begin_batch();
  std::vector<EdgeId> touched;
  if (localized) {
    touched.reserve(batch.reweight.size() + batch.insert.size());
  }

  // Snapshot the previous off-tree selection for the warm-refine route
  // (the backbone is always the edge-list prefix).
  std::vector<EdgeId> keep;
  if (opts_.warm_refine && !rebuild) {
    const SparsifyResult& prev = engine_->result();
    keep.assign(prev.edges.begin() +
                    static_cast<std::ptrdiff_t>(prev.tree_edges.size()),
                prev.edges.end());
  }

  // Mutate the graph and repair the backbone in lockstep. Inserts land
  // before removals so a batch may delete a bridge it replaces; removal
  // compaction then renumbers, keeping inserted edges at the tail.
  timer.reset();
  double repair_seconds = 0.0;
  for (const WeightUpdate& wu : batch.reweight) {
    const double old_weight = graph_.edge(wu.edge).weight;
    graph_.set_weight(wu.edge, wu.weight);
    if (localized) touched.push_back(wu.edge);
    if (!rebuild) {
      const WallTimer repair;
      if (tree_->after_reweight(wu.edge, old_weight)) ++stats.tree_swaps;
      repair_seconds += repair.seconds();
    }
  }
  for (const Edge& e : batch.insert) {
    const EdgeId id = graph_.add_edge(e.u, e.v, e.weight);
    if (localized) touched.push_back(id);
    if (!rebuild) {
      const WallTimer repair;
      if (tree_->after_insert(id)) ++stats.tree_swaps;
      repair_seconds += repair.seconds();
    }
  }
  std::vector<EdgeId> remap;
  if (!batch.remove.empty()) {
    std::vector<char> deleted(static_cast<std::size_t>(graph_.num_edges()),
                              0);
    for (const EdgeId e : batch.remove) {
      deleted[static_cast<std::size_t>(e)] = 1;
      if (!rebuild && tree_->contains(e)) ++stats.tree_removed;
    }
    if (!rebuild) {
      const WallTimer repair;
      stats.tree_swaps += tree_->after_deletions(deleted);
      repair_seconds += repair.seconds();
    }
    remap = graph_.remove_edges(batch.remove);
    if (!rebuild) {
      const WallTimer repair;
      tree_->remap_ids(remap);
      repair_seconds += repair.seconds();
      if (!keep.empty()) {
        std::size_t out = 0;
        for (const EdgeId e : keep) {
          const EdgeId mapped = remap[static_cast<std::size_t>(e)];
          if (mapped != kInvalidEdge) keep[out++] = mapped;
        }
        keep.resize(out);
      }
      if (!touched.empty()) {
        // Touched ids were recorded pre-compaction; a batch never removes
        // an edge it also reweights or inserts, so every id survives.
        for (EdgeId& e : touched) {
          e = remap[static_cast<std::size_t>(e)];
          SSP_ASSERT(e != kInvalidEdge, "touched edge removed in same batch");
        }
      }
    }
  }
  graph_.finalize();
  notify_stage(DynamicStage::kApplyGraph, timer.seconds() - repair_seconds,
               stats);

  // Localized warm start: label the OUTGOING backbone (still the
  // previous tree) with the repair's recorded dirty edges and flag every
  // surviving edge whose old path crossed one, plus the batch-touched
  // ids — then hand the mask + id remap to the engine so clean heats
  // carry over bit-for-bit. This must precede the backbone swap below.
  timer.reset();
  HeatWarmStart warm;
  const HeatWarmStart* warm_ptr = nullptr;
  if (localized) {
    compute_dirty_mask(touched, remap, old_m);
    warm.old_to_new = remap;  // empty span == identity (no removals)
    warm.dirty = dirty_scratch_;
    warm_ptr = &warm;
  }
  const double mask_seconds = timer.seconds();

  // Re-root the repaired backbone (or recompute it cold) on the updated
  // graph; canonical order keeps the tree-edge prefix bit-identical to a
  // cold Kruskal rebuild.
  timer.reset();
  if (rebuild) {
    rebuild_backbone_cold();
    stats.route = UpdateRoute::kRebuild;
    keep.clear();
  } else {
    // A batch that inserts nothing, removes nothing, and recorded no
    // dirty tree edge left the backbone bit-valid: same edge ids, same
    // tree-edge set, same tree-edge weights — every SpanningTree array
    // (and the canonical prefix order) is unchanged, so skip the O(n)
    // re-root. Reweight-only batches touching off-tree edges — the
    // parameter-update pattern of circuit simulation — hit this on
    // nearly every batch.
    const bool backbone_intact = batch.remove.empty() &&
                                 batch.insert.empty() &&
                                 tree_->dirty_tree_edges().empty();
    if (!backbone_intact) {
      const std::span<const EdgeId> canon = tree_->canonical_edge_ids();
      backbone_.emplace(graph_,
                        std::vector<EdgeId>(canon.begin(), canon.end()));
    }
    stats.route = (batch.remove.empty() && batch.insert.empty() &&
                   stats.tree_swaps == 0)
                      ? UpdateRoute::kResparsify
                      : UpdateRoute::kTreeRepair;
  }
  notify_stage(DynamicStage::kTreeRepair, repair_seconds + timer.seconds(),
               stats);

  // Warm-refine keeps may have been swapped into the new tree; they are
  // already covered by the backbone prefix then.
  if (!keep.empty()) {
    std::size_t out = 0;
    for (const EdgeId e : keep) {
      if (!backbone_->contains(e)) keep[out++] = e;
    }
    keep.resize(out);
  }

  timer.reset();
  engine_->rebind(graph_, *backbone_,
                  batch_seed(static_cast<Index>(history_.size())), keep,
                  warm_ptr);
  notify_stage(DynamicStage::kRebind, mask_seconds + timer.seconds(), stats);

  timer.reset();
  engine_->run();
  notify_stage(DynamicStage::kSparsify, timer.seconds(), stats);

  const SparsifyResult& r = engine_->result();
  stats.graph_edges = graph_.num_edges();
  stats.sparsifier_edges = r.num_edges();
  stats.sigma2_estimate = r.sigma2_estimate;
  stats.reached_target = r.reached_target;
  const LocalizedHeatStats heats = engine_->localized_heat_stats();
  stats.heats_reused = heats.reused;
  stats.heats_recomputed = heats.recomputed;
  for (const double s : stats.stage_seconds) stats.seconds += s;
  obs::counter_add("dynamic.batches", 1);
  obs::counter_add("dynamic.tree_swaps",
                   static_cast<std::uint64_t>(stats.tree_swaps));
  obs::counter_add("dynamic.heats.reused",
                   static_cast<std::uint64_t>(stats.heats_reused));
  obs::counter_add("dynamic.heats.recomputed",
                   static_cast<std::uint64_t>(stats.heats_recomputed));
  switch (stats.route) {
    case UpdateRoute::kResparsify:
      obs::counter_add("dynamic.route.resparsify", 1);
      break;
    case UpdateRoute::kTreeRepair:
      obs::counter_add("dynamic.route.tree-repair", 1);
      break;
    case UpdateRoute::kRebuild:
      obs::counter_add("dynamic.route.rebuild", 1);
      break;
  }
  record(stats);
  return history_.back();
}

void DynamicSparsifier::record(const UpdateStats& stats) {
  history_.push_back(stats);
  total_seconds_ += stats.seconds;
  if (observer_ != nullptr) observer_->on_update(history_.back());
}

UpdateStats DynamicSparsifier::insert_edges(std::span<const Edge> edges) {
  UpdateBatch batch;
  batch.insert.assign(edges.begin(), edges.end());
  return apply(batch);
}

UpdateStats DynamicSparsifier::delete_edges(
    std::span<const EdgeId> edge_ids) {
  UpdateBatch batch;
  batch.remove.assign(edge_ids.begin(), edge_ids.end());
  return apply(batch);
}

UpdateStats DynamicSparsifier::reweight_edges(
    std::span<const WeightUpdate> updates) {
  UpdateBatch batch;
  batch.reweight.assign(updates.begin(), updates.end());
  return apply(batch);
}

void apply_batch_to_graph(Graph& g, const UpdateBatch& batch) {
  for (const WeightUpdate& wu : batch.reweight) {
    g.set_weight(wu.edge, wu.weight);
  }
  for (const Edge& e : batch.insert) g.add_edge(e.u, e.v, e.weight);
  if (!batch.remove.empty()) g.remove_edges(batch.remove);
  g.finalize();
}

DynamicResult dynamic_sparsify(const Graph& g,
                               std::span<const UpdateBatch> script,
                               const DynamicOptions& opts) {
  DynamicSparsifier dyn(g, opts);
  for (const UpdateBatch& batch : script) dyn.apply(batch);
  return DynamicResult{dyn.graph(), dyn.result(), dyn.history()};
}

}  // namespace ssp
