#pragma once

/// \file edge_filter.hpp
/// Similarity-aware off-tree edge filtering — paper §3.5 / Eq. (15) — plus
/// the dissimilarity check of densification step 6 (§3.7).
///
/// The filter keeps an off-tree edge (p,q) iff its *normalized* Joule heat
/// clears the low-pass threshold
///   heat(p,q)/heat_max ≥ θ_σ ≈ (σ² λ_min / λ_max)^{2t+1}.
/// Intuition: heats scale like λ^{2t+1}; the target spectral radius after
/// densification is λ̃_max = σ²·λ̃_min ≈ σ²·λ_min, so edges whose implied λ
/// exceeds that target pass the filter, the rest are attenuated away —
/// spectral sparsification acting as a graph low-pass filter (§3.4).

#include <span>
#include <vector>

#include "core/embedding.hpp"
#include "graph/graph.hpp"

namespace ssp {

/// How "similar" edges are suppressed within one filtered batch (paper
/// densification step 6: "only add dissimilar edges").
enum class SimilarityPolicy {
  kNone,          ///< keep every edge above threshold
  kNodeDisjoint,  ///< greedy: skip an edge when either endpoint was already
                  ///< touched by an accepted edge this round
  kBounded,       ///< allow up to `node_cap` accepted edges per endpoint
};

struct FilterOptions {
  SimilarityPolicy similarity = SimilarityPolicy::kNodeDisjoint;
  /// Per-endpoint acceptance budget for SimilarityPolicy::kBounded.
  Index node_cap = 2;
  /// Hard cap on accepted edges per round (0 = unlimited) — the "small
  /// portions" of paper §3.7.
  EdgeId max_edges = 0;
};

/// Paper Eq. (15): θ_σ = (σ²·λ_min / λ_max)^{2t+1}, clamped to [0, 1].
[[nodiscard]] double heat_threshold(double sigma2, double lambda_min,
                                    double lambda_max, int power_steps);

/// Work done by `filter_offtree_edges`; each call adds its own counts.
struct FilterStats {
  std::size_t candidates = 0;  ///< edges at or above the heat threshold
  std::size_t examined = 0;    ///< candidates the similarity policy saw
};

/// Applies the threshold + similarity policy to an embedding. Candidates
/// are visited in descending heat order, ties by ascending edge id; the
/// returned ids preserve that order. θ = 0 admits every heat ≥ 0, also
/// when `heat_max` is infinite. The candidates are counting-sorted, stably,
/// into at most 4096 buckets by the bits of their heat, hottest bucket
/// first, and only the buckets the walk reaches are sorted. A reached
/// bucket larger than 8 × `max_edges` is sorted in doubling batches
/// selected off its top. The typical cost is O(m + k log(k/B)) for m
/// off-tree edges, k examined candidates and B reached buckets, rather
/// than a full sort of every candidate. When one bucket holds nearly all
/// candidates, the cost is that of doubling batches over them plus two
/// linear passes.
[[nodiscard]] std::vector<EdgeId> filter_offtree_edges(
    const Graph& g, const OffTreeEmbedding& emb, double theta,
    const FilterOptions& opts = {}, FilterStats* stats = nullptr);

}  // namespace ssp
