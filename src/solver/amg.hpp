#pragma once

/// \file amg.hpp
/// Aggregation-based algebraic multigrid for graph Laplacians — the repo's
/// stand-in for the graph-theoretic AMG solvers (LAMG [13] / SAMG [24]) the
/// paper uses to apply L_P⁺ inside power iterations and densification.
///
/// Setup: greedy heavy-edge aggregation pairs each vertex with its
/// strongest unaggregated neighbor (singletons join the strongest
/// neighboring aggregate); piecewise-constant prolongation P; Galerkin
/// coarse operator A_c = Pᵀ A P. Solve: V-cycles with weighted-Jacobi
/// smoothing; the coarsest level is solved densely (Cholesky with a tiny
/// regularization for the singular Laplacian, then re-centered).

#include <memory>
#include <span>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/dense_matrix.hpp"
#include "solver/preconditioner.hpp"

namespace ssp {

struct AmgOptions {
  enum class Smoother {
    kJacobi,       ///< weighted Jacobi (weight below)
    kGaussSeidel,  ///< symmetric Gauss–Seidel (forward + backward sweep);
                   ///< stronger per sweep, keeps the V-cycle symmetric so
                   ///< it remains a valid PCG preconditioner
  };
  Index max_levels = 24;
  Index coarse_size = 64;     ///< stop coarsening at this many vertices
  int pre_sweeps = 1;
  int post_sweeps = 1;
  /// Jacobi default: one pass over the matrix per sweep, where symmetric
  /// Gauss–Seidel makes a forward and a backward pass, each sequential.
  Smoother smoother = Smoother::kJacobi;
  double jacobi_weight = 0.67;
  /// Deflate the constant vector at the finest level (graph Laplacians).
  bool laplacian_mode = true;
};

class AmgHierarchy {
 public:
  /// Builds the multigrid hierarchy for a symmetric (SPD or Laplacian)
  /// matrix. Throws std::invalid_argument for non-square input.
  [[nodiscard]] static AmgHierarchy build(const CsrMatrix& a,
                                          const AmgOptions& opts = {});

  /// One V-cycle applied to A x = b, updating x in place (x is the initial
  /// guess).
  void vcycle(std::span<const double> b, std::span<double> x) const;

  /// Runs V-cycles until ||b − A x|| ≤ rel_tol·||b|| or `max_cycles`.
  /// \returns the number of cycles used.
  Index solve(std::span<const double> b, std::span<double> x, double rel_tol,
              Index max_cycles) const;

  [[nodiscard]] Index num_levels() const {
    return static_cast<Index>(levels_.size());
  }

  /// Σ nnz(A_level) / nnz(A_finest) — the standard grid-complexity metric.
  [[nodiscard]] double operator_complexity() const;

  [[nodiscard]] Index size() const {
    return levels_.empty() ? 0 : levels_.front().a.rows();
  }

 private:
  struct Level {
    CsrMatrix a;
    Vec inv_diag;                    ///< 1/diag(A) for Jacobi smoothing
    std::vector<Vertex> aggregate;  ///< fine vertex -> coarse aggregate id
    Index coarse_n = 0;
  };

  void cycle_at(std::size_t level, std::span<const double> b,
                std::span<double> x) const;
  void smooth(const Level& lv, std::span<const double> b,
              std::span<double> x, int sweeps) const;

  std::vector<Level> levels_;
  DenseMatrix coarse_factor_;  ///< dense Cholesky factor of the last level
  bool laplacian_mode_ = true;
  AmgOptions opts_;
};

/// Adapter: one V-cycle (from zero initial guess) as a PCG preconditioner.
class AmgPreconditioner final : public Preconditioner {
 public:
  explicit AmgPreconditioner(const AmgHierarchy& amg) : amg_(&amg) {}
  void apply(std::span<const double> r, std::span<double> z) const override;
  [[nodiscard]] Index size() const override { return amg_->size(); }

 private:
  const AmgHierarchy* amg_;
};

}  // namespace ssp
