#pragma once

/// \file eigen_estimate.hpp
/// Extreme generalized-eigenvalue estimators of paper §3.6.
///
/// λ_max — generalized power iterations (§3.6.1): fast because the top
/// eigenvalues of L_P⁺ L_G are well separated [21]; fewer than ten
/// iterations give a few-percent estimate (validated in Table 1).
///
/// λ_min — node-coloring bound (§3.6.2): restricting the Courant–Fischer
/// quotient xᵀL_G x / xᵀL_P x to 0/1-valued x (two-coloring the nodes) and
/// then to single-node indicators yields
///   λ_min ≈ min_p L_G(p,p) / L_P(p,p),
/// the minimum weighted-degree ratio — an O(n) upper bound that is
/// accurate to ~10 % on real graphs (Table 1). No Krylov method does this
/// cheaply because the small pencil eigenvalues are clustered.

#include <span>

#include "eigen/operators.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ssp {

/// Node-coloring estimate of λ_min(L_P⁺ L_G) per paper Eq. (18).
/// `in_sparsifier` marks the edges of P (one char per edge of g).
/// Every vertex must have positive P-degree (true whenever P contains a
/// spanning tree).
[[nodiscard]] double estimate_lambda_min_node_coloring(
    const Graph& g, std::span<const char> in_sparsifier);

/// Convenience overload for a standalone sparsifier graph on the same
/// vertex set.
[[nodiscard]] double estimate_lambda_min_node_coloring(const Graph& g,
                                                       const Graph& p);

/// λ_max estimate via `iterations` generalized power iterations (§3.6.1).
[[nodiscard]] double estimate_lambda_max_power(const CsrMatrix& lg,
                                               const LinOp& solve_p, Rng& rng,
                                               Index iterations = 10);

/// Start-vector form (see `generalized_power_iteration`): draws nothing, so
/// the engine can draw `start` from its Rng and hand the iteration to a
/// pool thread. Bit-identical to the Rng form on
/// `random_probe_vector(lg.rows(), rng)`.
[[nodiscard]] double estimate_lambda_max_power(const CsrMatrix& lg,
                                               const LinOp& solve_p, Vec start,
                                               Index iterations = 10);

}  // namespace ssp
