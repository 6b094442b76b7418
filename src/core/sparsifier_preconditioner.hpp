#pragma once

/// \file sparsifier_preconditioner.hpp
/// The production preconditioner built from a similarity-aware sparsifier:
/// L_P is *factored once* by sparse Cholesky — an ultra-sparse P (tree plus
/// a small fraction of off-tree edges) factors with near-zero fill under an
/// approximate-minimum-degree ordering, so each PCG application costs two
/// triangular solves over ~O(|V|) nonzeros and the operator is exactly
/// fixed (as CG requires). A factor of at least
/// `SparseCholesky::kSplitMinNnz` nonzeros is split into
/// `default_threads()` elimination-tree bins when it is built, and an
/// application then sweeps the bins on the thread pool; its output is
/// bit-identical at every thread count, so the operator stays fixed. This
/// realizes the paper's Table 2/3 usage: "the spectral sparsifier … is
/// leveraged as a preconditioner in a PCG solver".

#include "graph/graph.hpp"
#include "graph/laplacian.hpp"
#include "solver/cholesky.hpp"
#include "solver/preconditioner.hpp"

namespace ssp {

class SparsifierPreconditioner final : public Preconditioner {
 public:
  /// Factors the Laplacian of sparsifier graph `p` (connected, finalized).
  explicit SparsifierPreconditioner(
      const Graph& p,
      CholeskyOptions::Ordering ordering = CholeskyOptions::Ordering::kMinDegree)
      : chol_(SparseCholesky::factor_laplacian(laplacian(p),
                                               {.ordering = ordering})) {}

  void apply(std::span<const double> r, std::span<double> z) const override {
    chol_.solve(r, z);
  }

  [[nodiscard]] Index size() const override { return chol_.size(); }

  /// Factor nonzeros — the fill the ordering left (≈ |Es| + small).
  [[nodiscard]] Index factor_nnz() const { return chol_.factor_nnz(); }

  /// Analytic memory footprint (Table 3's M_I component).
  [[nodiscard]] std::size_t memory_bytes() const {
    return chol_.memory_bytes();
  }

 private:
  SparseCholesky chol_;
};

}  // namespace ssp
