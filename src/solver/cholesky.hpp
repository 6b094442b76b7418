#pragma once

/// \file cholesky.hpp
/// Simplicial sparse Cholesky factorization — the repo's stand-in for the
/// CHOLMOD direct solver the paper uses as the Table 3 baseline [5].
///
/// Pipeline: fill-reducing ordering (RCM default; approximate minimum
/// degree for the ultra-sparse sparsifier Laplacians) → elimination tree →
/// per-row pattern via `ereach` → up-looking numeric factorization
/// (CSparse/`cs_chol` lineage, Davis 2006). The factor is stored in CSC
/// with the diagonal entry first in each column. The densification loop
/// factors L_P once per round (`refactor_laplacian` over a reused
/// workspace) and applies L_P⁺ through `solve`.
///
/// Laplacians are factored by *grounding*: one vertex's row/column is
/// removed, making the reduced matrix SPD for connected graphs; solutions
/// are re-centered to zero mean (valid because RHS vectors are projected
/// onto the range, see DESIGN.md §5).

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "la/csr_matrix.hpp"
#include "solver/ordering.hpp"
#include "solver/preconditioner.hpp"
#include "util/types.hpp"

namespace ssp {

struct CholeskyOptions {
  enum class Ordering { kNatural, kRcm, kMinDegree };
  Ordering ordering = Ordering::kRcm;
  /// Added to every diagonal entry before factoring (regularization).
  double diagonal_shift = 0.0;
};

/// Scratch of one factorization: the (grounded) input and its symmetric
/// permutation as raw CSR arrays, the ordering's quotient graph, and the
/// symbolic/numeric pass buffers. Passing the same workspace to repeated
/// `refactor_laplacian` calls (one per densification round) reuses every
/// buffer's capacity instead of reallocating it.
struct CholeskyWorkspace {
  struct Csr {
    std::vector<Index> row_ptr;
    std::vector<Vertex> cols;
    std::vector<double> vals;
  };
  Csr grounded;  ///< input with the pinned row/column removed
  Csr permuted;  ///< grounded(order[i], order[j])
  MinDegreeWorkspace ordering;
  std::vector<Vertex> order;    ///< factored index -> grounded index
  std::vector<Vertex> inverse;  ///< grounded index -> factored index
  std::vector<std::pair<Vertex, double>> row;  ///< one permuted row
  std::vector<Vertex> parent;    ///< elimination tree
  std::vector<Vertex> ancestor;  ///< path-compressed etree ancestors
  std::vector<Vertex> reach;     ///< ereach pattern (and its path stack)
  std::vector<Vertex> flag;      ///< ereach visit marks
  std::vector<Index> next;       ///< next free slot per factor column
  Vec x;                         ///< numeric row accumulator
};

class SparseCholesky {
 public:
  /// Empty factor (size() == 0); fill it with `refactor_laplacian`.
  SparseCholesky() = default;

  /// Factors an SPD matrix (full symmetric CSR). Throws std::runtime_error
  /// when a pivot is non-positive (matrix not SPD).
  [[nodiscard]] static SparseCholesky factor(const CsrMatrix& a,
                                             const CholeskyOptions& opts = {});

  /// Factors a connected-graph Laplacian by grounding vertex `pin`
  /// (default: last vertex).
  [[nodiscard]] static SparseCholesky factor_laplacian(
      const CsrMatrix& l, const CholeskyOptions& opts = {},
      Index pin = -1);

  /// In-place `factor_laplacian`: overwrites this factor, reusing its
  /// storage and `ws`. Bit-identical to a fresh `factor_laplacian`.
  /// When the factor would hold more than `max_factor_nnz` nonzeros
  /// (counted by the min-degree ordering as it eliminates, by the symbolic
  /// pass otherwise), stops before the factor is allocated or computed,
  /// leaves this factor empty (size() == 0) and returns false.
  bool refactor_laplacian(
      const CsrMatrix& l, const CholeskyOptions& opts, CholeskyWorkspace& ws,
      Index pin = -1,
      Index max_factor_nnz = std::numeric_limits<Index>::max());

  /// Solves A x = b. In Laplacian mode, b is projected to zero mean and the
  /// solution is returned with zero mean (pseudoinverse convention).
  /// Allocation-free after a thread's first call (per-thread scratch), and
  /// safe to call concurrently on one factor.
  void solve(std::span<const double> b, std::span<double> x) const;
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Dimension of the factored operator as seen by solve().
  [[nodiscard]] Index size() const { return outer_n_; }

  /// Nonzeros in the triangular factor (including diagonal).
  [[nodiscard]] Index factor_nnz() const {
    return static_cast<Index>(rows_.size());
  }

  /// nnz(L) / nnz(tril(A)) — fill-in ratio.
  [[nodiscard]] double fill_ratio() const { return fill_ratio_; }

  /// Analytic storage footprint of the factor (values + indices + column
  /// pointers + permutation) — the Table 3 memory metric.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Factors ws.grounded (already built) under `opts`; `pin` >= 0 marks
  /// Laplacian mode with that vertex grounded. Returns false, with this
  /// factor left empty, when the factor would exceed `max_factor_nnz`.
  bool factor_grounded(Index outer_n, Index pin, const CholeskyOptions& opts,
                       CholeskyWorkspace& ws, Index max_factor_nnz);
  /// Empties the factor after an over-budget ordering or symbolic pass.
  void clear_over_budget();

  Index n_ = 0;        ///< factored (possibly grounded) dimension
  Index outer_n_ = 0;  ///< dimension seen by callers
  Index pin_ = -1;     ///< grounded vertex (original index), -1 when not
  /// Grounding and permutation folded into one map: factored index →
  /// caller-visible index (skipping `pin_` in Laplacian mode).
  std::vector<Vertex> outer_index_;
  // Factor in CSC, diagonal first per column.
  std::vector<Index> col_ptr_;
  std::vector<Vertex> rows_;
  std::vector<double> values_;
  double fill_ratio_ = 1.0;
};

/// Adapter: use a (Laplacian-mode) Cholesky factorization as a PCG
/// preconditioner / inner eigensolver operator.
class CholeskyPreconditioner final : public Preconditioner {
 public:
  explicit CholeskyPreconditioner(const SparseCholesky& chol) : chol_(&chol) {}
  void apply(std::span<const double> r, std::span<double> z) const override {
    chol_->solve(r, z);
  }
  [[nodiscard]] Index size() const override { return chol_->size(); }

 private:
  const SparseCholesky* chol_;
};

/// Elimination tree of a symmetric matrix (upper-triangle walk, Liu's
/// algorithm). parent[k] = etree parent or -1 for roots. Exposed for tests.
[[nodiscard]] std::vector<Vertex> elimination_tree(const CsrMatrix& a);

}  // namespace ssp
