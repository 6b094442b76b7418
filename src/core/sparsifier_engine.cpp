#include "core/sparsifier_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/edge_filter.hpp"
#include "core/eigen_estimate.hpp"
#include "core/stretch.hpp"
#include "graph/connectivity.hpp"
#include "graph/laplacian.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tree/akpw.hpp"
#include "tree/dijkstra_tree.hpp"
#include "tree/kruskal.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace ssp {

Sparsifier::Sparsifier(const Graph& g, SparsifyOptions opts)
    : g_(&g), opts_(std::move(opts)), rng_(opts_.seed) {
  opts_.validate();
  SSP_REQUIRE(g.finalized(), "sparsify: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 2, "sparsify: need >= 2 vertices");
  SSP_REQUIRE(is_connected(g), "sparsify: graph must be connected");
  const WallTimer timer;
  // Localized estimation never applies L_G: the stretch heats and bounds
  // come straight off the backbone, so the Laplacian build is skipped.
  if (opts_.estimation == EstimationMode::kPower) lg_ = laplacian(g);
  elapsed_seconds_ = timer.seconds();
}

Sparsifier::Sparsifier(const Graph& g, const SpanningTree& backbone,
                       SparsifyOptions opts)
    : g_(&g), opts_(std::move(opts)), external_backbone_(&backbone),
      rng_(opts_.seed) {
  opts_.validate();
  SSP_REQUIRE(&backbone.graph() == &g,
              "densify: backbone built on another graph");
  SSP_REQUIRE(g.finalized(), "sparsify: graph must be finalized");
  const WallTimer timer;
  if (opts_.estimation == EstimationMode::kPower) lg_ = laplacian(g);
  elapsed_seconds_ = timer.seconds();
}

void Sparsifier::ensure_backbone() {
  if (backbone_ != nullptr) return;
  const WallTimer timer;
  if (external_backbone_ != nullptr) {
    bind_backbone(*external_backbone_);
  } else {
    Rng tree_rng(opts_.seed ^ 0x5eed5eedULL);
    switch (opts_.backbone) {
      case BackboneKind::kMaxWeight:
        owned_backbone_ = max_weight_spanning_tree(*g_);
        break;
      case BackboneKind::kShortestPath:
        owned_backbone_ = shortest_path_tree_from_center(*g_);
        break;
      case BackboneKind::kAkpw:
        owned_backbone_ = akpw_low_stretch_tree(*g_, tree_rng);
        break;
    }
    bind_backbone(*owned_backbone_);
  }
  notify_stage(StageKind::kBackbone, timer.seconds());
}

void Sparsifier::bind_backbone(const SpanningTree& backbone) {
  backbone_ = &backbone;
  // Localized mode runs no inner solves, so the tree solver (an O(n)
  // build) is never materialized.
  if (opts_.estimation == EstimationMode::kPower) {
    tree_solver_.emplace(backbone);
  }
  result_.tree_edges.assign(backbone.tree_edge_ids().begin(),
                            backbone.tree_edge_ids().end());
  result_.edges = result_.tree_edges;
  factor_over_budget_ = false;
  in_p_.assign(static_cast<std::size_t>(g_->num_edges()), 0);
  for (EdgeId e : result_.edges) in_p_[static_cast<std::size_t>(e)] = 1;
}

namespace {

// Fill guard of the kCholesky inner solver. While P is ultra-sparse its
// min-degree factor holds 1-4 nonzeros per nonzero of L_P (meshes about 1;
// scale-free, kNN and 3-D grid sparsifiers 2-4 at sigma^2 = 100). On
// expander-like inputs at a tight sigma^2 the fill grows every round; at
// about 8 one factorization costs as much as a whole AMG round (random
// graph, 5k vertices, 10 edges per vertex, sigma^2 = 10). The ordering
// stops as soon as it counts more than that, and since P only grows, the
// rest of the run solves with AMG. Factors under the floor are cheap at
// any fill and always built. The count is exact although the ordering's
// degrees are only AMD upper bounds: the bounds only pick which vertex
// goes next, while each eliminated vertex's fill clique is still formed
// explicitly, and its size plus one is that factor column's nonzeros.
constexpr Index kMaxFactorFill = 8;
constexpr Index kAlwaysFactorNnz = Index{1} << 16;

}  // namespace

LinOp Sparsifier::make_solver(double* setup_seconds, PanelOp* panel) {
  const WallTimer timer;
  LinOp solve_p;
  const bool tree_only = static_cast<EdgeId>(result_.edges.size()) ==
                         static_cast<EdgeId>(g_->num_vertices()) - 1;
  if (tree_only) {
    // P is the bare backbone: the O(n) tree solver is exact.
    solve_p = make_tree_solver_op(*tree_solver_);
    if (panel != nullptr) {
      *panel = make_tree_solver_panel_op(*tree_solver_);
    }
  } else {
    // Both solvers copy what they need out of L_P, so it is not kept.
    const CsrMatrix lp = laplacian(g_->edge_subgraph(result_.edges));
    bool factored = false;
    if (opts_.inner_solver == InnerSolverKind::kCholesky &&
        !factor_over_budget_) {
      const Index budget =
          std::max(kMaxFactorFill * lp.nnz(), kAlwaysFactorNnz);
      factored = chol_.refactor_laplacian(
          lp, {.ordering = CholeskyOptions::Ordering::kMinDegree}, chol_ws_,
          -1, budget);
      factor_over_budget_ = !factored;
      if (factored) solve_p = make_cholesky_op(chol_);
    }
    if (!factored) {
      amg_ = AmgHierarchy::build(lp);
      solve_p = make_amg_op(amg_, opts_.solver_tolerance, 200);
    }
  }
  if (setup_seconds != nullptr) *setup_seconds = timer.seconds();
  return solve_p;
}

namespace {

// Indexed by StageKind; keep in sync with the enum in the header.
constexpr const char* kStageSpanName[kNumStageKinds] = {
    "engine.backbone",  "engine.solver-setup", "engine.spectral-estimate",
    "engine.embedding", "engine.filtering",    "engine.final-estimate"};
constexpr obs::MetricId kStageNsMetric[kNumStageKinds] = {
    "engine.stage.backbone.ns",          "engine.stage.solver-setup.ns",
    "engine.stage.spectral-estimate.ns", "engine.stage.embedding.ns",
    "engine.stage.filtering.ns",         "engine.stage.final-estimate.ns"};
constexpr obs::MetricId kStageCallsMetric[kNumStageKinds] = {
    "engine.stage.backbone.calls",          "engine.stage.solver-setup.calls",
    "engine.stage.spectral-estimate.calls", "engine.stage.embedding.calls",
    "engine.stage.filtering.calls",         "engine.stage.final-estimate.calls"};

}  // namespace

bool Sparsifier::finish_round(DensifyRound& stats, double seconds) {
  stats.seconds = seconds;
  obs::counter_add("engine.rounds", 1);
  obs::counter_add("engine.filter.edges_added",
                   static_cast<std::uint64_t>(stats.edges_added));
  result_.rounds.push_back(stats);
  ++next_round_;
  return observer_ == nullptr || observer_->on_round(stats);
}

void Sparsifier::notify_stage(StageKind stage, double seconds) {
  // Telemetry only: nothing below feeds back into the computation, so
  // output stays bit-identical with observability on or off.
  const auto idx = static_cast<int>(stage);
  obs::counter_add(kStageNsMetric[idx],
                   static_cast<std::uint64_t>(seconds * 1e9));
  obs::counter_add(kStageCallsMetric[idx], 1);
  obs::TraceScope span(kStageSpanName[idx], seconds);
  if (observer_ != nullptr) observer_->on_stage(stage, seconds);
}

StepStatus Sparsifier::step() {
  if (done_) return status_;
  const WallTimer timer;
  status_ = step_impl();
  elapsed_seconds_ += timer.seconds();
  result_.total_seconds = elapsed_seconds_;
  return status_;
}

void Sparsifier::ensure_stretch() {
  if (stretch_ready_) return;
  SSP_ASSERT(backbone_ != nullptr, "ensure_stretch: backbone not bound");
  const EdgeId m = g_->num_edges();
  heat_stats_ = {};
  if (stretch_warm_pending_) {
    SSP_ASSERT(stretch_cache_.size() == static_cast<std::size_t>(m) &&
                   stretch_dirty_.size() == static_cast<std::size_t>(m),
               "ensure_stretch: warm cache size mismatch");
    for (EdgeId e = 0; e < m; ++e) {
      if (backbone_->contains(e)) continue;
      if (stretch_dirty_[static_cast<std::size_t>(e)] != 0) {
        stretch_cache_[static_cast<std::size_t>(e)] =
            edge_stretch(*backbone_, e);
        ++heat_stats_.recomputed;
      } else {
        ++heat_stats_.reused;
      }
    }
    stretch_warm_pending_ = false;
  } else {
    stretch_cache_.assign(static_cast<std::size_t>(m), 0.0);
    for (EdgeId e = 0; e < m; ++e) {
      if (backbone_->contains(e)) continue;
      stretch_cache_[static_cast<std::size_t>(e)] =
          edge_stretch(*backbone_, e);
      ++heat_stats_.recomputed;
    }
  }
  obs::counter_add("engine.heats.reused",
                   static_cast<std::uint64_t>(heat_stats_.reused));
  obs::counter_add("engine.heats.recomputed",
                   static_cast<std::uint64_t>(heat_stats_.recomputed));
  stretch_ready_ = true;
}

StepStatus Sparsifier::step_impl_localized() {
  ensure_backbone();
  const WallTimer round_timer;
  DensifyRound stats;
  stats.round = next_round_;

  // --- Heat (re)build + off-tree embedding assembly. The cache either
  // comes out of ensure_stretch() cold (full canonical sweep) or patched
  // (warm rebind: dirty ids only); the assembled embedding is bitwise the
  // same either way — the localized kEmbedding stage. ---
  WallTimer stage_timer;
  ensure_stretch();
  const EdgeId m = g_->num_edges();
  emb_.offtree_edges.clear();
  emb_.heat.clear();
  emb_.heat_max = 0.0;
  emb_.total_heat = 0.0;
  emb_.power_steps = 0;
  emb_.num_vectors = 0;
  for (EdgeId e = 0; e < m; ++e) {
    if (in_p_[static_cast<std::size_t>(e)] != 0) continue;
    const double h = stretch_cache_[static_cast<std::size_t>(e)];
    emb_.offtree_edges.push_back(e);
    emb_.heat.push_back(h);
    emb_.total_heat += h;
    if (h > emb_.heat_max) emb_.heat_max = h;
  }
  notify_stage(StageKind::kEmbedding, stage_timer.seconds());

  // --- Spectral bounds from the remaining stretch. For a subgraph
  // sparsifier λ_min(L_P⁺L_G) = 1 exactly, and splitting each remaining
  // off-tree edge against its own tree path gives
  // L_G ≼ (1 + max remaining stretch) · L_P, so σ̂² = 1 + heat_max is a
  // true upper bound on the relative condition number — no solves, no
  // probes, no Rng. ---
  stage_timer.reset();
  stats.lambda_min = 1.0;
  stats.lambda_max = 1.0 + emb_.heat_max;
  stats.sigma2_estimate = stats.lambda_max;
  notify_stage(StageKind::kSpectralEstimate, stage_timer.seconds());

  result_.lambda_min = stats.lambda_min;
  result_.lambda_max = stats.lambda_max;
  result_.sigma2_estimate = stats.sigma2_estimate;

  if (stats.sigma2_estimate <= opts_.sigma2 || emb_.offtree_edges.empty()) {
    result_.reached_target = stats.sigma2_estimate <= opts_.sigma2;
    finish_round(stats, round_timer.seconds());
    done_ = true;
    return result_.reached_target ? StepStatus::kConverged
                                  : StepStatus::kExhausted;
  }

  // --- Rank and filter. An edge keeps σ̂² above the target exactly when
  // its stretch exceeds σ² − 1, so that cut — normalized by heat_max for
  // the filter's relative-threshold convention — is θ. The adaptive
  // "small portions" cap and the dissimilarity policy are shared with the
  // power path verbatim. ---
  stage_timer.reset();
  stats.theta = std::clamp((opts_.sigma2 - 1.0) / emb_.heat_max, 0.0, 1.0);
  const EdgeId cap_per_round = [&] {
    if (opts_.max_edges_per_round > 0) return opts_.max_edges_per_round;
    const double gap = stats.sigma2_estimate / opts_.sigma2;
    const Index divisor =
        gap > 1000.0 ? 4 : (gap > 100.0 ? 8 : (gap > 3.0 ? 16 : 24));
    return std::max<EdgeId>(
        64, static_cast<EdgeId>(g_->num_vertices()) / divisor);
  }();
  const FilterOptions fopts = {.similarity = opts_.similarity,
                               .node_cap = opts_.node_cap,
                               .max_edges = cap_per_round};
  std::vector<EdgeId> picked =
      filter_offtree_edges(*g_, emb_, stats.theta, fopts);
  if (picked.empty()) {
    picked = filter_offtree_edges(
        *g_, emb_, 0.0,
        {.similarity = opts_.similarity,
         .node_cap = opts_.node_cap,
         .max_edges = std::min<EdgeId>(cap_per_round, 16)});
  }
  notify_stage(StageKind::kFiltering, stage_timer.seconds());
  if (picked.empty()) {  // unreachable: the hottest edge always passes
    finish_round(stats, round_timer.seconds());
    done_ = true;
    return StepStatus::kExhausted;
  }
  for (EdgeId e : picked) {
    in_p_[static_cast<std::size_t>(e)] = 1;
    result_.edges.push_back(e);
  }
  stats.edges_added = static_cast<EdgeId>(picked.size());
  ++rounds_this_phase_;

  const bool keep_going = finish_round(stats, round_timer.seconds());
  if (rounds_this_phase_ >= opts_.max_rounds) {
    final_estimate();
    done_ = true;
    return result_.reached_target ? StepStatus::kConverged
                                  : StepStatus::kRoundLimit;
  }
  if (!keep_going) {
    done_ = true;
    return StepStatus::kCancelled;
  }
  return StepStatus::kAdvanced;
}

StepStatus Sparsifier::step_impl() {
  if (opts_.estimation == EstimationMode::kLocalized) {
    return step_impl_localized();
  }
  ensure_backbone();
  const WallTimer round_timer;
  DensifyRound stats;
  stats.round = next_round_;

  // --- Step 1 (§3.7): update L_P and its solver. ---
  double setup_seconds = 0.0;
  PanelOp solve_p_panel;
  const LinOp solve_p = make_solver(&setup_seconds, &solve_p_panel);
  notify_stage(StageKind::kSolverSetup, setup_seconds);

  // --- Step 2: estimate the spectral similarity. ---
  WallTimer stage_timer;
  stats.lambda_min = estimate_lambda_min_node_coloring(*g_, in_p_);
  stats.lambda_max = estimate_lambda_max_power(lg_, solve_p, rng_,
                                               opts_.lambda_max_iterations);
  // Guard against solver noise: the pencil spectrum is >= 1 for
  // subgraph sparsifiers.
  stats.lambda_max = std::max(stats.lambda_max, 1.0);
  stats.lambda_min = std::clamp(stats.lambda_min, 1.0, stats.lambda_max);
  stats.sigma2_estimate = stats.lambda_max / stats.lambda_min;
  notify_stage(StageKind::kSpectralEstimate, stage_timer.seconds());

  result_.lambda_min = stats.lambda_min;
  result_.lambda_max = stats.lambda_max;
  result_.sigma2_estimate = stats.sigma2_estimate;

  // --- Step 3: stop when similar enough (or nothing left to add). ---
  if (stats.sigma2_estimate <= opts_.sigma2 ||
      static_cast<EdgeId>(result_.edges.size()) == g_->num_edges()) {
    result_.reached_target = stats.sigma2_estimate <= opts_.sigma2;
    finish_round(stats, round_timer.seconds());
    done_ = true;
    return result_.reached_target ? StepStatus::kConverged
                                  : StepStatus::kExhausted;
  }

  // --- Step 4: spectral embedding of off-tree edges. ---
  stage_timer.reset();
  compute_offtree_heat(*g_, lg_, in_p_, solve_p,
                       {.power_steps = opts_.power_steps,
                        .num_vectors = opts_.num_vectors,
                        .threads = opts_.threads},
                       rng_, emb_ws_, emb_, solve_p_panel);
  notify_stage(StageKind::kEmbedding, stage_timer.seconds());
  obs::counter_add("engine.embedding.vectors",
                   static_cast<std::uint64_t>(opts_.num_vectors));

  // --- Step 5: rank and filter by normalized Joule heat (Eq. 15). ---
  stage_timer.reset();
  stats.theta = heat_threshold(opts_.sigma2, stats.lambda_min,
                               stats.lambda_max, opts_.power_steps);

  // --- Step 6: add only dissimilar filtered edges. ---
  // Adaptive "small portions" (§3.7): while far from the target, add up to
  // n/4 edges per round; once within 8x of the target, shrink the batch to
  // n/16 so the final density is not overshot. A user-provided cap wins.
  const EdgeId cap_per_round = [&] {
    if (opts_.max_edges_per_round > 0) return opts_.max_edges_per_round;
    // Batch size tracks the remaining multiplicative gap to the target:
    // large batches while far away (few expensive re-embedding rounds),
    // small ones near the target (no density overshoot).
    const double gap = stats.sigma2_estimate / opts_.sigma2;
    const Index divisor =
        gap > 1000.0 ? 4 : (gap > 100.0 ? 8 : (gap > 3.0 ? 16 : 24));
    return std::max<EdgeId>(
        64, static_cast<EdgeId>(g_->num_vertices()) / divisor);
  }();
  const FilterOptions fopts = {.similarity = opts_.similarity,
                               .node_cap = opts_.node_cap,
                               .max_edges = cap_per_round};
  std::vector<EdgeId> picked =
      filter_offtree_edges(*g_, emb_, stats.theta, fopts);
  if (picked.empty()) {
    // The threshold filtered everything although the target is unmet
    // (estimator noise). Force progress with the hottest edges.
    picked = filter_offtree_edges(
        *g_, emb_, 0.0,
        {.similarity = opts_.similarity,
         .node_cap = opts_.node_cap,
         .max_edges = std::min<EdgeId>(cap_per_round, 16)});
  }
  notify_stage(StageKind::kFiltering, stage_timer.seconds());
  if (picked.empty()) {  // no off-tree edges remain
    finish_round(stats, round_timer.seconds());
    done_ = true;
    return StepStatus::kExhausted;
  }
  for (EdgeId e : picked) {
    in_p_[static_cast<std::size_t>(e)] = 1;
    result_.edges.push_back(e);
  }
  stats.edges_added = static_cast<EdgeId>(picked.size());
  ++rounds_this_phase_;

  const bool keep_going = finish_round(stats, round_timer.seconds());
  if (rounds_this_phase_ >= opts_.max_rounds) {
    // Round budget exhausted right after an add: refresh the final
    // estimate so the reported σ² reflects the sparsifier actually
    // returned. This round terminates the run regardless, so the
    // observer's cancellation verdict is ignored (per the StageObserver
    // contract).
    final_estimate();
    done_ = true;
    return result_.reached_target ? StepStatus::kConverged
                                  : StepStatus::kRoundLimit;
  }
  if (!keep_going) {
    // Observer cancellation: keep the edges accepted so far; the reported
    // estimates reflect the state before this round's additions.
    done_ = true;
    return StepStatus::kCancelled;
  }
  return StepStatus::kAdvanced;
}

void Sparsifier::final_estimate_localized() {
  const WallTimer timer;
  ensure_stretch();
  double max_remaining = 0.0;
  for (EdgeId e = 0; e < g_->num_edges(); ++e) {
    if (in_p_[static_cast<std::size_t>(e)] != 0) continue;
    max_remaining =
        std::max(max_remaining, stretch_cache_[static_cast<std::size_t>(e)]);
  }
  result_.lambda_min = 1.0;
  result_.lambda_max = 1.0 + max_remaining;
  result_.sigma2_estimate = result_.lambda_max;
  result_.reached_target = result_.sigma2_estimate <= opts_.sigma2;
  notify_stage(StageKind::kFinalEstimate, timer.seconds());
}

void Sparsifier::final_estimate() {
  if (opts_.estimation == EstimationMode::kLocalized) {
    final_estimate_localized();
    return;
  }
  const WallTimer timer;
  const LinOp solve_p = make_solver(nullptr);
  result_.lambda_min = estimate_lambda_min_node_coloring(*g_, in_p_);
  result_.lambda_max =
      std::max(estimate_lambda_max_power(lg_, solve_p, rng_,
                                         opts_.lambda_max_iterations),
               1.0);
  result_.lambda_min =
      std::clamp(result_.lambda_min, 1.0, result_.lambda_max);
  result_.sigma2_estimate = result_.lambda_max / result_.lambda_min;
  result_.reached_target = result_.sigma2_estimate <= opts_.sigma2;
  notify_stage(StageKind::kFinalEstimate, timer.seconds());
}

StepStatus Sparsifier::run() {
  while (!done_) step();
  return status_;
}

void Sparsifier::rearm_phase() {
  rounds_this_phase_ = 0;
  done_ = false;
  status_ = StepStatus::kAdvanced;
  result_.reached_target = false;
}

void Sparsifier::refine(double new_sigma2) {
  opts_.with_sigma2(new_sigma2);  // shared per-field constraint check
  rearm_phase();
}

void Sparsifier::resparsify(std::span<const double> updated_weights) {
  SSP_REQUIRE(static_cast<EdgeId>(updated_weights.size()) == g_->num_edges(),
              "resparsify: one weight per edge id required");
  for (const double w : updated_weights) {
    SSP_REQUIRE(w > 0.0 && std::isfinite(w),
                "resparsify: weights must be positive and finite");
  }

  // Rebuild the graph with the new weights (topology unchanged, so edge
  // ids — and with them the backbone's tree edge ids — stay valid).
  Graph reweighted(g_->num_vertices());
  for (EdgeId e = 0; e < g_->num_edges(); ++e) {
    const Edge& edge = g_->edge(e);
    reweighted.add_edge(edge.u, edge.v,
                        updated_weights[static_cast<std::size_t>(e)]);
  }
  reweighted.finalize();

  // Snapshot the backbone topology before the old graph goes away. A
  // caller-supplied backbone not yet bound (no step ran) counts too —
  // its tree must survive the warm start, not be replaced by an
  // opts_.backbone rebuild.
  const SpanningTree* source_backbone =
      backbone_ != nullptr ? backbone_ : external_backbone_;
  const bool had_backbone = source_backbone != nullptr;
  std::vector<EdgeId> tree_ids;
  Vertex root = 0;
  if (had_backbone) {
    tree_ids.assign(source_backbone->tree_edge_ids().begin(),
                    source_backbone->tree_edge_ids().end());
    root = source_backbone->root();
  }

  // Drop state referencing the old graph/backbone, then swap.
  tree_solver_.reset();
  owned_backbone_.reset();
  backbone_ = nullptr;
  external_backbone_ = nullptr;

  owned_graph_ = std::move(reweighted);
  g_ = &*owned_graph_;
  if (opts_.estimation == EstimationMode::kPower) lg_ = laplacian(*g_);
  // New weights change every stretch — the localized cache is stale.
  stretch_ready_ = false;
  stretch_warm_pending_ = false;
  rng_ = Rng(opts_.seed);

  result_ = SparsifyResult{};
  next_round_ = 0;
  elapsed_seconds_ = 0.0;
  rearm_phase();

  if (had_backbone) {
    // Reuse the backbone topology: the expensive low-stretch construction
    // is skipped, only the O(n) rooted structure and the weight-dependent
    // tree solver/preconditioner are rebuilt.
    const WallTimer timer;
    owned_backbone_.emplace(*g_, std::move(tree_ids), root);
    bind_backbone(*owned_backbone_);
    elapsed_seconds_ = timer.seconds();
    result_.total_seconds = elapsed_seconds_;
    notify_stage(StageKind::kBackbone, elapsed_seconds_);
  }
}

void Sparsifier::rebind(const Graph& g, const SpanningTree& backbone,
                        std::uint64_t seed,
                        std::span<const EdgeId> keep_offtree,
                        const HeatWarmStart* warm) {
  SSP_REQUIRE(g.finalized(), "rebind: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 2, "rebind: need >= 2 vertices");
  SSP_REQUIRE(&backbone.graph() == &g, "rebind: backbone built on another graph");
  SSP_REQUIRE(!owned_graph_.has_value() || &g != &*owned_graph_,
              "rebind: pass a caller-owned graph, not the engine's "
              "resparsify() copy");
  // Validate the keep list before any teardown so a rejected call leaves
  // the engine exactly as it was (the resparsify() atomicity contract).
  {
    std::vector<char> seen(static_cast<std::size_t>(g.num_edges()), 0);
    for (const EdgeId e : keep_offtree) {
      SSP_REQUIRE(e >= 0 && e < g.num_edges(),
                  "rebind: keep_offtree id out of range");
      SSP_REQUIRE(!backbone.contains(e) &&
                      seen[static_cast<std::size_t>(e)] == 0,
                  "rebind: keep_offtree id is a tree edge or a duplicate");
      seen[static_cast<std::size_t>(e)] = 1;
    }
  }
  // Stage the localized heat-cache migration before teardown so a rejected
  // warm descriptor leaves the engine untouched (same atomicity contract
  // as the keep list above). Identity remap keeps the cache in place;
  // otherwise old heats land at their new ids and removed ids drop out.
  const bool take_warm = warm != nullptr &&
                         opts_.estimation == EstimationMode::kLocalized &&
                         stretch_ready_;
  std::vector<double> migrated;
  bool migrate_in_place = false;
  if (take_warm) {
    SSP_REQUIRE(warm->dirty.size() == static_cast<std::size_t>(g.num_edges()),
                "rebind: warm dirty mask must cover every new edge id");
    if (warm->old_to_new.empty()) {
      // Identity: prior ids keep their slots; ids past the old edge count
      // are new (appended) and must be flagged dirty by the caller.
      SSP_REQUIRE(stretch_cache_.size() <=
                      static_cast<std::size_t>(g.num_edges()),
                  "rebind: identity warm remap cannot shrink the id space");
      migrate_in_place = true;
    } else {
      // The remap may cover more ids than the cache (edges appended after
      // the previous binding, compacted together with it) — only cached
      // slots migrate; everything else starts dirty-zero.
      SSP_REQUIRE(warm->old_to_new.size() >= stretch_cache_.size(),
                  "rebind: warm remap must cover every old edge id");
      migrated.assign(static_cast<std::size_t>(g.num_edges()), 0.0);
      for (std::size_t e = 0; e < stretch_cache_.size(); ++e) {
        const EdgeId ne = warm->old_to_new[e];
        if (ne != kInvalidEdge) {
          SSP_REQUIRE(ne < g.num_edges(),
                      "rebind: warm remap target out of range");
          migrated[static_cast<std::size_t>(ne)] = stretch_cache_[e];
        }
      }
    }
  }

  const WallTimer timer;
  // Drop state referencing the old graph/backbone, then swap.
  tree_solver_.reset();
  owned_backbone_.reset();
  owned_graph_.reset();
  backbone_ = nullptr;
  external_backbone_ = &backbone;

  g_ = &g;
  if (opts_.estimation == EstimationMode::kPower) lg_ = laplacian(g);
  if (take_warm) {
    if (migrate_in_place) {
      stretch_cache_.resize(static_cast<std::size_t>(g.num_edges()), 0.0);
    } else {
      stretch_cache_ = std::move(migrated);
    }
    stretch_dirty_.assign(warm->dirty.begin(), warm->dirty.end());
    stretch_warm_pending_ = true;
  } else {
    stretch_warm_pending_ = false;
  }
  stretch_ready_ = false;  // rebuilt (full or patched) on the next step
  opts_.seed = seed;
  rng_ = Rng(seed);

  result_ = SparsifyResult{};
  next_round_ = 0;
  rearm_phase();
  bind_backbone(backbone);
  for (const EdgeId e : keep_offtree) {  // pre-validated above
    in_p_[static_cast<std::size_t>(e)] = 1;
    result_.edges.push_back(e);
  }
  elapsed_seconds_ = timer.seconds();
  result_.total_seconds = elapsed_seconds_;
  notify_stage(StageKind::kBackbone, elapsed_seconds_);
}

void Sparsifier::restore_result(double lambda_min, double lambda_max,
                                double sigma2_estimate, bool reached_target,
                                StepStatus status) {
  SSP_REQUIRE(backbone_ != nullptr,
              "restore_result: rebind() to the checkpointed backbone first");
  SSP_REQUIRE(is_terminal(status),
              "restore_result: status must be terminal");
  result_.lambda_min = lambda_min;
  result_.lambda_max = lambda_max;
  result_.sigma2_estimate = sigma2_estimate;
  result_.reached_target = reached_target;
  done_ = true;
  status_ = status;
}

}  // namespace ssp
