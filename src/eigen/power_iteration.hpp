#pragma once

/// \file power_iteration.hpp
/// Power iterations — both the plain symmetric variant and the
/// *generalized* variant on the pencil (L_G, L_P) that the paper's §3.6.1
/// uses to estimate λ_max of L_P⁺ L_G ("λ̃_max is estimated using less than
/// ten generalized power iterations", converging fast because the top
/// pencil eigenvalues are well separated [21]).

#include "eigen/operators.hpp"
#include "util/rng.hpp"

namespace ssp {

struct PowerOptions {
  Index max_iterations = 100;
  /// Stop when the Rayleigh quotient changes by less than this relative
  /// amount between iterations.
  double rel_tolerance = 1e-6;
  /// Keep iterates orthogonal to the all-ones vector (graph Laplacians).
  bool project_constants = true;
};

struct PowerResult {
  double eigenvalue = 0.0;
  Vec vector;
  Index iterations = 0;
};

/// Largest eigenvalue (by magnitude) of the symmetric operator `apply`.
[[nodiscard]] PowerResult power_iteration(const LinOp& apply, Index n,
                                          Rng& rng,
                                          const PowerOptions& opts = {});

/// Largest generalized eigenvalue λ_max of L_G u = λ L_P u via power
/// iterations on L_P⁺ L_G. `solve_p` applies L_P⁺. The Rayleigh quotient is
/// evaluated as (hᵀ L_G h)/(hᵀ L_P h) without an extra L_P product by using
/// hᵀ L_P h_{t} = hᵀ L_G h_{t-1} along the iteration. Each step makes one
/// 2-column pass over L_G: the new iterate's L_G·h_t for the numerator and
/// its normalized copy's product for the next step.
[[nodiscard]] PowerResult generalized_power_iteration(
    const CsrMatrix& lg, const LinOp& solve_p, Rng& rng,
    const PowerOptions& opts = {});

}  // namespace ssp
