#pragma once

/// \file sparsifier_engine.hpp
/// Stateful similarity-aware sparsification engine.
///
/// The paper's pipeline is inherently staged — backbone → (λ_min, λ_max)
/// estimation → Joule-heat embedding → θ_σ filtering → dissimilar-batch
/// acceptance — and `ssp::Sparsifier` exposes exactly those seams:
///
///  * `run()` drives the densification loop to completion;
///  * `step()` executes one round at a time (identical results: a seeded
///    step()-driven run reproduces the one-shot edge list bit-for-bit);
///  * `result()` is the accumulated `SparsifyResult` at any point;
///  * `refine(sigma2)` re-arms a finished engine at a new similarity
///    target, keeping the edge set, backbone, tree solver, and scratch
///    workspace — resuming densification instead of starting over (the
///    GRASS-style iterative-refinement workflow). Per-round solver state
///    that depends on the growing edge set (the Cholesky factor of L_P,
///    refactored into reused storage, or the AMG hierarchy) is rebuilt
///    each round, warm or cold;
///  * `rebind(g, backbone, seed)` warm-starts on another graph (new
///    weights or topology) with a caller-supplied backbone, reusing every
///    workspace buffer — the dynamic layer's (src/dynamic/) one warm path.
///
/// Observability: every stage adds its wall time to the
/// `engine.stage.<stage>.ns` / `.calls` counters and emits an
/// `engine.<stage>` span (src/obs/) — the one source of stage times. A
/// `StageObserver` is a control hook only: `on_round` receives each
/// round's record (the same one appended to `SparsifyResult::rounds`) and
/// may cancel by returning false.
///
/// The engine owns all per-round scratch (sparsifier membership bitmap,
/// power-iteration vectors, off-tree heat arrays), so repeated rounds —
/// and repeated warm starts on same-size graphs — perform no steady-state
/// allocation in the embedding path.
///
/// Determinism contract (threads): the engine's result is a pure function
/// of (graph, options-without-threads, seed). `SparsifyOptions::threads`
/// — and the SSP_THREADS environment default behind `threads == 0` —
/// changes only wall time, never a single bit of the final edge list or
/// the telemetry estimates. Two mechanisms guarantee this:
///
///  1. **Per-stream RNG.** Every parallel unit of work (probe vector j of
///     the Joule-heat embedding, JL sketch i of the SS baseline) draws
///     from its own `Rng::split(stream_id)` child generator, derived from
///     the engine seed — the random sequence a unit consumes depends only
///     on its stream id, never on which thread executes it.
///  2. **Deterministic reductions.** Solved probe iterates are stored per
///     probe and their per-edge heat contributions summed in stream
///     order; every other parallel loop writes each output location from
///     exactly one chunk. No floating-point sum ever depends on the
///     chunk decomposition.
///
/// The switch from one shared sequential RNG to derived per-probe streams
/// changed one-shot `sparsify()` output once (relative to the pre-threaded
/// library); it is now fixed regardless of thread count, and the
/// sequential path (`threads = 1`) draws the identical derived streams.
///
/// Round steps (§3.7), as `step()` runs them:
///  1. solver setup: assemble L_P and build its L_P⁺ (`make_solver`);
///  2. spectral estimate: draw the power iteration's start vector from the
///     engine's Rng, then λ_max by generalized power iterations and λ_min
///     by node coloring;
///  3. stop test on σ² = λ_max / λ_min;
///  4. embedding: Joule heats of the off-tree edges, r probes of t power
///     steps (`compute_offtree_heat`, which advances the Rng once);
///  5–6. θ_σ filter and dissimilar-batch acceptance.
///
/// Overlap. Steps 2 and 4 read only L_G and the round's L_P⁺, and step 2
/// draws nothing from the Rng but its start vector. So, once that vector
/// is drawn, the embedding's stream is fixed, and the estimate and the
/// embedding (with λ_min) can run as the two chunks of one pool region,
/// before the stop test. The overlap runs only where the stages' own
/// parallelism is weak, from properties of the round (no option selects
/// it). All of these must hold:
///  * `resolve_threads(opts.threads) >= 2`, the pool has >= 2 workers, and
///    the caller is not on a pool worker (an engine nested in a pool
///    region, e.g. a scale-driver unit, keeps the sequential order);
///  * the round's solver runs on one thread: the tree solver or an unsplit
///    factor, not a split factor (`SparseCholesky::split`) and not AMG;
///  * L_G holds >= `kernels::kSpmvParallelMinNnz` nonzeros.
/// Otherwise the same function runs steps 2, 3 and 4 in order. Inside a
/// chunk the stages' own SpMV, probe and solve regions run inline (the
/// pool's nested-region rule), with the same arithmetic, so the result is
/// bit-identical either way. Each overlapped round counts in
/// `engine.stage.overlap.rounds`, and each stage records its own chunk's
/// seconds, so the estimate and embedding seconds of a round may overlap
/// in wall time.
///
/// Rng contract: a round draws the start vector from the engine's Rng,
/// and the embedding runs on a copy of the Rng as it stands after that
/// draw. A round that stops at step 3 drops the embedding (an overlapped
/// one computed it anyway) and leaves the Rng just past the start vector;
/// a round that goes on takes the embedding's advance. Either way the Rng
/// holds the state the sequential order leaves, so `refine()` resumes on
/// the same stream at any thread count.
///
/// Thread-compatibility: a `Sparsifier` instance is single-threaded at the
/// API level — calls into one instance must not overlap, while internally
/// each step fans work out over the global pool; distinct instances are
/// independent. In an overlapped round the round's L_P⁺ (`solve_p`) is
/// called from two threads at once, so every inner solver must be safe
/// for concurrent solves (the tree solver and the Cholesky factor keep
/// their scratch per thread). The engine is neither copyable nor movable
/// (inner solvers hold references into the instance).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/embedding.hpp"
#include "core/sparsifier.hpp"
#include "la/csr_matrix.hpp"
#include "solver/amg.hpp"
#include "solver/cholesky.hpp"
#include "tree/spanning_tree.hpp"
#include "tree/tree_solver.hpp"
#include "util/rng.hpp"

namespace ssp {

/// Pipeline stages; each is timed into `engine.stage.<stage>.ns` and an
/// `engine.<stage>` span, named by `to_string(StageKind)`.
enum class StageKind {
  kBackbone,          ///< spanning-tree backbone construction
  kSolverSetup,       ///< L_P assembly and inner solver (re)build
  kSpectralEstimate,  ///< (λ_min, λ_max) estimation (§3.6); λ_max only
                      ///< in an overlapped round
  kEmbedding,         ///< Joule-heat embedding of off-tree edges (§3.2);
                      ///< with λ_min in an overlapped round
  kFiltering,         ///< θ_σ filter + dissimilar batch selection (§3.5/3.7)
  kFinalEstimate,     ///< post-loop σ² refresh after the round budget
};

/// Number of StageKind values (sizes the stage name tables).
inline constexpr int kNumStageKinds = 6;

/// Per-round control hook for the engine. The callback runs
/// synchronously on the engine's thread and must not re-enter the engine.
class StageObserver {
 public:
  virtual ~StageObserver() = default;

  /// Called after every densification round with its telemetry (including
  /// the terminal estimate-only round). Return false to cancel: the engine
  /// finishes with StepStatus::kCancelled and keeps the edges accepted so
  /// far. The returned value is ignored on rounds that already terminate
  /// the run.
  virtual bool on_round(const DensifyRound& /*round*/) { return true; }
};

/// Outcome of a `step()` (and, for the terminal statuses, of `run()`).
enum class StepStatus {
  kAdvanced,    ///< a round ran and accepted edges; more work may remain
  kConverged,   ///< σ² target reached — `result().reached_target` is true
  kExhausted,   ///< no off-tree edges left to add (σ² target unreachable)
  kRoundLimit,  ///< max_rounds exhausted before reaching the target
  kCancelled,   ///< a StageObserver::on_round returned false
};

/// True for every status except kAdvanced.
[[nodiscard]] constexpr bool is_terminal(StepStatus s) {
  return s != StepStatus::kAdvanced;
}

class Sparsifier {
 public:
  /// Validates `opts` and binds the engine to `g` (connected, finalized;
  /// must outlive the engine). The backbone is built lazily on the first
  /// `step()`/`run()`.
  explicit Sparsifier(const Graph& g, SparsifyOptions opts = {});

  /// Caller-supplied backbone (must span `g`; both must outlive the
  /// engine). `opts.backbone` is ignored. Used by tests and ablation
  /// benches that study backbone choices in isolation.
  Sparsifier(const Graph& g, const SpanningTree& backbone,
             SparsifyOptions opts = {});

  Sparsifier(const Sparsifier&) = delete;
  Sparsifier& operator=(const Sparsifier&) = delete;

  /// Attaches (or detaches, with nullptr) the round observer. The
  /// observer must outlive the engine or be detached first.
  void set_observer(StageObserver* observer) { observer_ = observer; }

  /// Executes one densification round (§3.7). No-op returning the final
  /// status when the engine is already done.
  StepStatus step();

  /// Steps until a terminal status; returns it.
  StepStatus run();

  /// True once a terminal status was reached (reset by warm starts).
  [[nodiscard]] bool done() const { return done_; }

  /// Status of the most recent step (kAdvanced before any work).
  [[nodiscard]] StepStatus status() const { return status_; }

  /// Accumulated result. Before the first step the edge list is empty;
  /// after any step it always contains at least the backbone.
  [[nodiscard]] const SparsifyResult& result() const { return result_; }

  /// Moves the result out of a finished engine without copying the edge
  /// and telemetry vectors. The engine's accumulated state is gone
  /// afterwards: destroy it or warm-start with rebind(); step(),
  /// run(), and refine() are no longer valid. Used by the one-shot
  /// wrappers.
  [[nodiscard]] SparsifyResult take_result() { return std::move(result_); }

  /// The graph currently being sparsified — the constructor argument, or
  /// the graph of the latest `rebind()`.
  [[nodiscard]] const Graph& graph() const { return *g_; }

  [[nodiscard]] const SparsifyOptions& options() const { return opts_; }

  /// Total rounds executed across all phases (cold run + warm starts).
  [[nodiscard]] Index rounds_completed() const { return next_round_; }

  /// Warm start at a new σ² target: keeps the accepted edge set, backbone,
  /// tree solver/preconditioner, and workspace, re-arms the engine with a
  /// fresh round budget, and resumes on the next `step()`/`run()`.
  /// Tightening the target densifies incrementally; loosening simply stops
  /// earlier (already-accepted edges are never removed).
  void refine(double new_sigma2);

  /// Warm start on a different graph (any topology) with a caller-supplied
  /// backbone — the one warm-start path, behind the dynamic update layer
  /// (src/dynamic/). Re-weighting is a rebind onto the re-weighted copy
  /// with a tree on the same edge ids. Both `g` and `backbone` must outlive
  /// the engine, and `backbone` must span `g`. The engine re-seeds its Rng
  /// with `seed` and restarts densification from the backbone, reusing
  /// every workspace buffer, so the run is bit-identical to a cold
  /// `Sparsifier(g, backbone, opts.with_seed(seed))` run — only cheaper
  /// (no allocation, no connectivity re-check).
  ///
  /// `keep_offtree` optionally pre-accepts off-tree edges of `g` (valid
  /// ids, not tree edges, pairwise distinct) into the sparsifier before the
  /// first round — the incremental-refine warm start: densification then
  /// tops up from the previous selection instead of from the bare tree.
  void rebind(const Graph& g, const SpanningTree& backbone,
              std::uint64_t seed, std::span<const EdgeId> keep_offtree = {});

  /// Checkpoint-restore companion to `rebind()`: stamps the telemetry
  /// scalars of a previously *finished* run onto the freshly rebound
  /// result and marks the engine done with `status` (which must be
  /// terminal), without running a single round. After
  /// `rebind(g, backbone, seed, offtree)` + `restore_result(...)` the
  /// engine's `result()`, `done()`, and `status()` match the engine that
  /// originally produced the checkpoint bit for bit — so a restored
  /// serving session answers quality queries correctly and its next
  /// warm-refine `rebind()` sees the identical previous selection.
  void restore_result(double lambda_min, double lambda_max,
                      double sigma2_estimate, bool reached_target,
                      StepStatus status);

 private:
  void ensure_backbone();
  void bind_backbone(const SpanningTree& backbone);
  void rearm_phase();
  /// Builds the L_P⁺ operator for the current sparsifier: the backbone tree
  /// solver while P is the bare tree, otherwise a fresh factorization of
  /// L_P (min-degree sparse Cholesky into the reused factor and workspace;
  /// exact solves) or, from the first round whose factor would exceed the
  /// fill budget on, an AMG hierarchy solved to a fixed loose tolerance.
  /// When `panel` is non-null and the sparsifier supports a blocked
  /// multi-RHS apply (the tree-only rounds), `*panel` receives the panel
  /// form; otherwise it is left empty and callers fall back to column-wise
  /// solves.
  [[nodiscard]] LinOp make_solver(double* setup_seconds,
                                  PanelOp* panel = nullptr);
  /// True while P is the bare backbone.
  [[nodiscard]] bool tree_only() const;
  /// The overlap gate (file comment): whether this round, whose solver
  /// `make_solver` just built, runs its spectral estimate and its
  /// embedding as two concurrent chunks.
  [[nodiscard]] bool overlaps_estimate_and_embedding() const;
  void final_estimate();
  /// Records the round and notifies; returns on_round's verdict.
  bool finish_round(const DensifyRound& stats);
  void notify_stage(StageKind stage, double seconds);
  StepStatus step_impl();

  const Graph* g_;
  SparsifyOptions opts_;
  StageObserver* observer_ = nullptr;

  std::optional<SpanningTree> owned_backbone_;
  const SpanningTree* external_backbone_ = nullptr;
  const SpanningTree* backbone_ = nullptr;  ///< active backbone (once built)
  std::optional<TreeSolver> tree_solver_;

  CsrMatrix lg_;  ///< Laplacian of *g_, built once per (re)binding
  Rng rng_;

  // Engine-owned workspace, reused every round.
  std::vector<char> in_p_;       ///< sparsifier membership per edge id
  SparseCholesky chol_;          ///< current L_P factor
  CholeskyWorkspace chol_ws_;    ///< ordering/etree/pass scratch for chol_
  /// Set once a round's L_P factor exceeds the fill budget; the rest of
  /// the run (P only grows) uses AMG. Cleared when a backbone is bound.
  bool factor_over_budget_ = false;
  AmgHierarchy amg_;             ///< current AMG hierarchy (over budget)
  EmbeddingWorkspace emb_ws_;    ///< power-iteration vectors
  OffTreeEmbedding emb_;         ///< off-tree heats, refilled in place

  SparsifyResult result_;
  Index next_round_ = 0;         ///< global round counter (stats.round)
  Index rounds_this_phase_ = 0;  ///< rounds since ctor / last warm start
  bool done_ = false;
  StepStatus status_ = StepStatus::kAdvanced;
  double elapsed_seconds_ = 0.0;
};

}  // namespace ssp
