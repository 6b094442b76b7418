#pragma once

/// \file quality.hpp
/// Condition-number quality estimation for an arbitrary sparsifier graph —
/// λ_max via generalized power iterations with a tree-PCG solver for L_P,
/// λ_min via the paper's §3.6.2 node-coloring (degree-ratio) bound. Used by
/// ssp_sparsify's scale route (--estimate-quality/--rescale on the stitched
/// sparsifier) and the benches that compare sparsifiers produced by different pipelines (whole-graph vs
/// partitioned, similarity-aware vs Spielman–Srivastava).

#include <cstdint>

#include "graph/graph.hpp"
#include "util/types.hpp"

namespace ssp {

struct SparsifierQuality {
  double lambda_min = 0.0;  ///< node-coloring estimate of λ_min(L_P⁺ L_G)
  double lambda_max = 0.0;  ///< power-iteration estimate of λ_max(L_P⁺ L_G)
  double sigma2 = 0.0;      ///< λ_max / λ_min — relative condition number κ
};

struct QualityOptions {
  Index power_iterations = 20;     ///< generalized power iterations for λ_max
  double solver_tolerance = 1e-8;  ///< relative tolerance of the L_P solves
  std::uint64_t seed = 42;         ///< start-vector seed (deterministic)
};

/// Estimates κ(L_G, L_P) for a sparsifier `p` of `g` on the same vertex
/// set. Both graphs must be finalized and `p` connected (its max-weight
/// spanning tree preconditions the inner PCG solves). Handles arbitrary
/// (re-weighted) sparsifiers: λ_min may drop below 1, guarded only at 0.
[[nodiscard]] SparsifierQuality estimate_sparsifier_quality(
    const Graph& g, const Graph& p, const QualityOptions& opts = {});

}  // namespace ssp
