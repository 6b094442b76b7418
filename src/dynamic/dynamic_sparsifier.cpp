#include "dynamic/dynamic_sparsifier.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
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

void DynamicOptions::validate() const { base.validate(); }

DynamicOptions& DynamicOptions::with_base(SparsifyOptions opts) {
  opts.validate();
  base = std::move(opts);
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

  WallTimer timer;
  order_ = max_weight_edge_order(graph_);
  backbone_.emplace(graph_, kruskal_scan(graph_, order_));
  notify_stage(DynamicStage::kBackbone, timer.seconds(), stats);

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

  // The backbone is a function of the graph, so recompute it rather than
  // trust the file: a stored tree that is not the canonical Kruskal tree
  // of the replayed graph would break incremental ≡ cold on the next
  // batch.
  order_ = max_weight_edge_order(graph_);
  std::vector<EdgeId> tree = kruskal_scan(graph_, order_);
  SSP_REQUIRE(tree == state.tree_edges,
              "restore: checkpointed backbone is not the canonical "
              "max-weight spanning tree of the replayed graph");
  backbone_.emplace(graph_, std::move(tree));

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

// Indexed by DynamicStage; keep in sync with the enum in the header. The
// kBackbone stage keeps its older "tree-repair" names: dashboards and the
// serve wire read them.
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
  obs::emit_span(kDynSpanName[idx], seconds);
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

void DynamicSparsifier::update_edge_order(const UpdateBatch& batch,
                                          std::span<const EdgeId> remap) {
  // Pre-batch id -> new id, with the ids whose key moved (removed: remap
  // says kInvalidEdge; reweighted) dropped. Compaction keeps relative id
  // order, so the surviving ids stay in canonical order. `remap` also
  // covers the batch's inserts (appended before the removals); only its
  // pre-batch prefix is needed here.
  std::vector<EdgeId> to_new(order_.size());
  if (remap.empty()) {
    std::iota(to_new.begin(), to_new.end(), EdgeId{0});
  } else {
    std::copy_n(remap.begin(), to_new.size(), to_new.begin());
  }
  std::vector<EdgeId> changed;
  changed.reserve(batch.reweight.size() + batch.insert.size());
  for (const WeightUpdate& wu : batch.reweight) {
    EdgeId& mapped = to_new[static_cast<std::size_t>(wu.edge)];
    changed.push_back(mapped);
    mapped = kInvalidEdge;
  }
  std::size_t out = 0;
  for (const EdgeId e : order_) {
    const EdgeId mapped = to_new[static_cast<std::size_t>(e)];
    if (mapped != kInvalidEdge) order_[out++] = mapped;
  }
  order_.resize(out);

  // Inserted edges sit at the tail of the compacted id space.
  const EdgeId m = graph_.num_edges();
  for (EdgeId id = m - static_cast<EdgeId>(batch.insert.size()); id < m;
       ++id) {
    changed.push_back(id);
  }
  // A strict total order, so sort and merge reproduce a fresh sort.
  const GraphView view(graph_);
  const auto before = [&view](EdgeId a, EdgeId b) {
    return max_weight_before(view, a, b);
  };
  std::sort(changed.begin(), changed.end(), before);
  std::vector<EdgeId> merged(order_.size() + changed.size());
  std::merge(order_.begin(), order_.end(), changed.begin(), changed.end(),
             merged.begin(), before);
  order_.swap(merged);
}

UpdateStats DynamicSparsifier::apply(const UpdateBatch& batch) {
  UpdateStats stats;
  stats.batch = static_cast<Index>(history_.size());
  stats.inserted = static_cast<EdgeId>(batch.insert.size());
  stats.removed = static_cast<EdgeId>(batch.remove.size());
  stats.reweighted = static_cast<EdgeId>(batch.reweight.size());

  WallTimer timer;
  validate_batch(batch);
  notify_stage(DynamicStage::kValidate, timer.seconds(), stats);

  // Snapshot the previous off-tree selection for warm refine (the
  // backbone is always the edge-list prefix) unless the batch is large
  // enough to reset it.
  const EdgeId final_edges = graph_.num_edges() - stats.removed +
                             stats.inserted;
  const double touched_fraction =
      static_cast<double>(batch.size()) /
      static_cast<double>(std::max<EdgeId>(1, final_edges));
  std::vector<EdgeId> keep;
  if (opts_.warm_refine && touched_fraction < kRefineResetFraction) {
    const SparsifyResult& prev = engine_->result();
    keep.assign(prev.edges.begin() +
                    static_cast<std::ptrdiff_t>(prev.tree_edges.size()),
                prev.edges.end());
  }

  // Inserts land before removals so a batch may delete a bridge it
  // replaces; removal compaction then renumbers, keeping inserted edges at
  // the tail.
  timer.reset();
  for (const WeightUpdate& wu : batch.reweight) {
    graph_.set_weight(wu.edge, wu.weight);
  }
  for (const Edge& e : batch.insert) graph_.add_edge(e.u, e.v, e.weight);
  std::vector<EdgeId> remap;
  if (!batch.remove.empty()) {
    remap = graph_.remove_edges(batch.remove);
    std::size_t out = 0;
    for (const EdgeId e : keep) {
      const EdgeId mapped = remap[static_cast<std::size_t>(e)];
      if (mapped != kInvalidEdge) keep[out++] = mapped;
    }
    keep.resize(out);
  }
  graph_.finalize();
  notify_stage(DynamicStage::kApplyGraph, timer.seconds(), stats);

  timer.reset();
  update_edge_order(batch, remap);
  backbone_.emplace(graph_, kruskal_scan(graph_, order_));
  notify_stage(DynamicStage::kBackbone, timer.seconds(), stats);

  // Warm-refine keeps may have entered the new tree; they are already
  // covered by the backbone prefix then.
  if (!keep.empty()) {
    std::size_t out = 0;
    for (const EdgeId e : keep) {
      if (!backbone_->contains(e)) keep[out++] = e;
    }
    keep.resize(out);
  }

  timer.reset();
  engine_->rebind(graph_, *backbone_,
                  batch_seed(static_cast<Index>(history_.size())), keep);
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
  obs::counter_add("dynamic.batches", 1);
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
