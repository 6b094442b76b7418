#pragma once

/// \file sparsifier.hpp
/// Public entry points: similarity-aware spectral graph sparsification by
/// edge filtering (Feng, DAC 2018).
///
/// One-shot convenience wrapper (thin shim over the `ssp::Sparsifier`
/// engine in sparsifier_engine.hpp):
///
/// ```
/// ssp::Graph g = ...;                      // weighted, connected
/// const auto opts = ssp::SparsifyOptions{}
///                       .with_sigma2(100.0)   // target relative cond. #
///                       .with_seed(42);
/// const ssp::SparsifyResult r = ssp::sparsify(g, opts);
/// ssp::Graph p = r.extract(g);             // the sparsifier
/// // κ(L_G, L_P) ≈ r.sigma2_estimate ≤ opts.sigma2 (when reached_target)
/// ```
///
/// Staged engine flow — per-round control, cancellation, and
/// warm-started re-sparsification (see sparsifier_engine.hpp); stage
/// times come from the src/obs/ counters and spans:
///
/// ```
/// ssp::Sparsifier engine(g, opts);
/// engine.set_observer(&my_observer);       // on_round: inspect or cancel
/// engine.run();                            // or: while (!engine.done()) engine.step();
/// ssp::Graph p = engine.result().extract(engine.graph());
/// engine.refine(25.0);                     // tighten σ² — reuses the
/// engine.run();                            // backbone, workspace, solvers
/// ```
///
/// `SparsifyOptions` remains an aggregate for compatibility, but prefer the
/// `with_*` named setters (they validate eagerly) plus `validate()` over
/// poking fields directly; direct field writes bypass validation until the
/// engine constructor runs and may be restricted in a future release.
///
/// Pipeline (paper §3): low-stretch spanning-tree backbone → iterative
/// densification, each round estimating (λ_min, λ_max) of L_P⁺ L_G,
/// embedding off-tree edges by Joule heat, filtering by θ_σ, and adding a
/// small batch of mutually dissimilar survivors — until λ_max/λ_min ≤ σ².

#include <cstdint>
#include <vector>

#include "core/edge_filter.hpp"
#include "graph/graph.hpp"

namespace ssp {

/// Spanning-tree backbone algorithm (§3.1 step (a)).
enum class BackboneKind {
  kAkpw,         ///< AKPW-style low-stretch tree (default)
  kMaxWeight,    ///< Kruskal maximum-weight tree
  kShortestPath  ///< Dijkstra SPT from a max-degree center
};

/// The engine's one heat/spectral estimator: the paper's smoothed JL
/// embedding (r random probes through t generalized power iterations
/// against L_P⁺ L_G) with power-iteration λ_max. Kept only so callers
/// written against `with_estimation()` still compile.
enum class EstimationMode { kPower };

/// No option picks the inner solver that applies L_P⁺ (§3.7 step 1): the
/// engine factors L_P exactly while the factor stays sparse, and hands
/// the rest of a run to AMG once it would fill in (see
/// `Sparsifier::make_solver`).
struct SparsifyOptions {
  /// Target upper bound σ² on the relative condition number κ(L_G, L_P).
  double sigma2 = 100.0;
  BackboneKind backbone = BackboneKind::kAkpw;
  /// t — generalized power-iteration steps for the edge embedding.
  int power_steps = 2;
  /// r — random embedding vectors; 0 selects ceil(log2 n).
  Index num_vectors = 0;
  /// Densification rounds before giving up (per engine phase — each
  /// `refine()`/`rebind()` warm start gets a fresh budget).
  Index max_rounds = 24;
  /// Edges added per round; 0 selects an adaptive cap — n/4 while the
  /// estimate is > 8x the target, n/16 for the refinement rounds
  /// ("small portions", §3.7).
  EdgeId max_edges_per_round = 0;
  SimilarityPolicy similarity = SimilarityPolicy::kNodeDisjoint;
  /// Per-endpoint budget for SimilarityPolicy::kBounded.
  Index node_cap = 2;
  /// Generalized power iterations for the λ_max estimate (§3.6.1).
  Index lambda_max_iterations = 10;
  /// Worker threads for the engine's own parallel stages (probe-vector
  /// embedding and per-edge accumulations; 0 = `ssp::default_threads()`,
  /// which honours the SSP_THREADS environment variable and falls back to
  /// `hardware_concurrency()`). Everything nested inside those stages —
  /// including row-parallel SpMV — is confined to the stage's workers, so
  /// `threads = 1` runs the whole embedding serially. Shared primitives
  /// invoked *outside* an engine stage (e.g. a top-level
  /// `CsrMatrix::multiply`) follow the process-wide default instead; use
  /// `ssp::set_default_threads()` / SSP_THREADS (as the tools' --threads
  /// flag does) to bound the entire process. The engine's determinism
  /// contract guarantees bit-identical results for every value — see
  /// sparsifier_engine.hpp.
  int threads = 0;
  std::uint64_t seed = 42;

  /// Full cross-field validation; throws std::invalid_argument on the
  /// first violated constraint. Called by the engine constructor, so
  /// callers only need it to fail fast at configuration time.
  void validate() const;

  // Builder-style named setters. Each validates its argument eagerly and
  // returns *this so options chain fluently:
  //   auto opts = SparsifyOptions{}.with_sigma2(50).with_max_rounds(12);
  SparsifyOptions& with_sigma2(double value);
  SparsifyOptions& with_backbone(BackboneKind kind);
  SparsifyOptions& with_power_steps(int steps);
  SparsifyOptions& with_num_vectors(Index r);
  SparsifyOptions& with_max_rounds(Index rounds);
  SparsifyOptions& with_max_edges_per_round(EdgeId cap);
  SparsifyOptions& with_similarity(SimilarityPolicy policy);
  SparsifyOptions& with_node_cap(Index cap);
  SparsifyOptions& with_lambda_max_iterations(Index iterations);
  SparsifyOptions& with_threads(int n);
  SparsifyOptions& with_seed(std::uint64_t value);
  /// Does nothing: kPower is the only estimator. Kept because the
  /// benchmark workloads (perfbench/src/workloads_static.cpp) call it.
  SparsifyOptions& with_estimation(EstimationMode mode);
};

/// Record of one densification round (paper §3.7), delivered live via
/// `StageObserver::on_round` and retained in `SparsifyResult::rounds`.
/// Its stage times are in the `engine.stage.*` counters (src/obs/).
struct DensifyRound {
  Index round = 0;
  double lambda_min = 0.0;       ///< node-coloring estimate, Eq. (18)
  double lambda_max = 0.0;       ///< power-iteration estimate, §3.6.1
  double sigma2_estimate = 0.0;  ///< λ_max / λ_min before this round's adds
  double theta = 0.0;            ///< filter threshold θ_σ used, Eq. (15)
  EdgeId edges_added = 0;
};

struct SparsifyResult {
  /// Edge ids of G forming the sparsifier (backbone first, then additions
  /// in acceptance order).
  std::vector<EdgeId> edges;
  /// The backbone subset (n−1 ids) — always a prefix of `edges`.
  std::vector<EdgeId> tree_edges;
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  double sigma2_estimate = 0.0;  ///< final λ_max/λ_min estimate
  bool reached_target = false;
  /// One record per round, in order — the same records
  /// `StageObserver::on_round` receives live.
  std::vector<DensifyRound> rounds;
  double total_seconds = 0.0;

  /// Materializes the sparsifier as a finalized graph on g's vertex set.
  [[nodiscard]] Graph extract(const Graph& g) const {
    return g.edge_subgraph(edges);
  }
  /// |Es| including the backbone.
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges.size());
  }
};

/// Runs the full similarity-aware sparsification pipeline on a connected,
/// finalized graph — constructs an `ssp::Sparsifier` engine, drives it to
/// completion, and returns its result. Throws std::invalid_argument for
/// bad options or a disconnected graph.
[[nodiscard]] SparsifyResult sparsify(const Graph& g,
                                      const SparsifyOptions& opts = {});

}  // namespace ssp
