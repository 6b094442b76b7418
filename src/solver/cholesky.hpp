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
///
/// Per-thread etree bins. A column's off-diagonal rows are all etree
/// ancestors of it, so once a top-closed set S of etree nodes (every
/// ancestor of an S node is in S) is taken out, each subtree left below S
/// touches only its own rows and S rows. After the symbolic pass the factor
/// moves S out, heaviest free subtree first, until the free subtrees pack
/// into k = `default_threads()` bins within `kBinImbalance` of equal
/// nonzeros. Each bin becomes one contiguous column range in AMD relative
/// order and S goes last in AMD order; the numeric pass writes every column
/// straight into its relabeled slots (values are computed once, in the AMD
/// order, and never move), and the permutation is folded into the
/// gather/scatter map. The split reads the etree and column counts the
/// factor's structure is built from, so a column's etree parent is its
/// first off-diagonal row. `solve` then
///  1. computes the Laplacian shift (serial);
///  2. gathers and forward-sweeps every bin over its in-bin rows (one pool
///     region);
///  3. replays the forward sweep into S from the S schedule — each S row's
///     entries from bin and S columns, in AMD column order — then
///     backward-sweeps S (serial);
///  4. backward-sweeps every bin (one pool region);
///  5. zeroes the pin, scatters and re-centres (serial: x is the caller's,
///     and stores into it from the bins' threads measured slower).
/// Every entry of the work vector receives the same operations in the same
/// order as in one AMD-order column sweep (in-bin ancestors precede S
/// ancestors in AMD order, and the replay keeps AMD order across bins), so
/// the result is bit-identical for every thread count and every split.
/// Without a split there is one bin and no S, and the routine is that
/// column sweep.
///
/// Concurrency: `solve` is const and safe to call concurrently on one
/// factor. A call from outside the pool may open pool regions, which the
/// pool serializes; a call from inside a pool region (e.g. the embedding's
/// parallel probe loop) runs the same schedule inline on its thread.

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
  // Bin split buffers (per column / per etree node).
  std::vector<Index> subtree_nnz;    ///< factor nonzeros per etree subtree
  std::vector<Vertex> free_roots;    ///< roots of the subtrees below S
  std::vector<Vertex> packed;        ///< free roots, heaviest first
  std::vector<Index> bin_load;       ///< packing loads, then cursors
  /// Each AMD column's bin (k marks S) while planning, then its relabeled
  /// column.
  std::vector<Vertex> relabel;
  std::vector<Index> head;           ///< AMD column -> its first slot
  std::vector<Vertex> s_sources;     ///< AMD columns with S rows, in order
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
  /// safe to call concurrently on one factor. A split factor runs its bins
  /// in two pool regions (file comment).
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
  /// pointers + permutation + the bin split's per-column row ends, S
  /// schedule and bin bounds) — the Table 3 memory metric.
  [[nodiscard]] std::size_t memory_bytes() const;

  // Split constants. Measured on a 4-vCPU x86-64 VM with two pool
  // threads, alternating blocks of 200 solves against the one-bin factor
  // in one process (medians of 20–30 blocks), on AMD factors of σ² = 100
  // sparsifiers of log-weight meshes.

  /// Factors under this many nonzeros are not split. The two-thread solve
  /// lost 3% at 4.2k nonzeros (40² mesh) and 2.6% at 6.2k, broke even at
  /// 8.6k and won 21–28% from 11k (64², 72², 80²), one run each in a host
  /// phase where the one-bin sweep ran slow (in fast phases a bare solve
  /// loop gains little at any size; inside PCG it does, see README). 16Ki
  /// keeps a margin for slower pool hand-offs; the factors of a 48² mesh
  /// sparsifier (6.1k) and of 600-vertex dense networks (2.2–2.5k on
  /// average) stay whole.
  static constexpr Index kSplitMinNnz = 16384;
  /// The largest bin may hold this much more than the mean bin's nonzeros.
  /// On a 128² mesh sparsifier's factor (58k nonzeros, two bins) every
  /// tolerance from 0.01 to 0.04 gives S = 83 columns and bins of 28,030
  /// and 27,910 nonzeros; 0.08 stops at S = 46 with a 4% heavier bin.
  static constexpr double kBinImbalance = 0.04;
  /// S is solved serially, so it may hold at most n / kMaxSeparatorDivisor
  /// columns — a path's chain etree never fits —
  static constexpr Index kMaxSeparatorDivisor = 32;
  /// ... and at most factor_nnz() / kMaxSeparatorNnzDivisor nonzeros. The
  /// two-thread solve was 25–30% faster with S at 4% of the nonzeros (that
  /// 128² mesh), 1% faster at 20% (3-D grid 20³) and 36% slower at 50%
  /// (Barabási–Albert, 20k vertices, m = 3), so such dense etree tops stay
  /// whole.
  static constexpr Index kMaxSeparatorNnzDivisor = 8;

  /// Read-only view of the factor's arrays, in the factored (relabeled)
  /// order. Bin b is columns [bin_begin[b], bin_begin[b + 1]); S is
  /// [bin_begin.back(), size of col_ptr − 1). `outer_index` maps a factored
  /// index to the caller-visible one; `pin` is the grounded vertex or −1.
  struct Layout {
    Index pin;
    std::span<const Vertex> outer_index;
    std::span<const Index> col_ptr;
    std::span<const Vertex> rows;
    std::span<const double> values;
    std::span<const Index> bin_begin;
  };
  [[nodiscard]] Layout layout() const {
    return {pin_, outer_index_, col_ptr_, rows_, values_, bin_begin_};
  }

 private:
  /// Factors ws.grounded (already built) under `opts`; `pin` >= 0 marks
  /// Laplacian mode with that vertex grounded. Returns false, with this
  /// factor left empty, when the factor would exceed `max_factor_nnz`.
  bool factor_grounded(Index outer_n, Index pin, const CholeskyOptions& opts,
                       CholeskyWorkspace& ws, Index max_factor_nnz);
  /// Empties the factor after an over-budget ordering or symbolic pass.
  void clear_over_budget();
  /// Plans the per-thread bins (file comment) from the etree in ws.parent
  /// and the column counts in ws.next: sets bin_begin_ and, with a split,
  /// ws.relabel. Leaves one bin and no S when the factor is under
  /// kSplitMinNnz nonzeros, k = 1, or no split fits the S cap.
  void plan_bins(CholeskyWorkspace& ws, Index lnz);
  /// After the numeric pass of a split factor: relabels rows_, and builds
  /// the in-bin row ends and the S schedule.
  void finish_bins(CholeskyWorkspace& ws);

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
  /// nbins + 1 column bounds; S is [bin_begin_.back(), n_). One bin and
  /// no S without a split.
  std::vector<Index> bin_begin_ = {0, 0};
  /// Per column: the slot past its last in-bin row (head + 1 for an S
  /// column). Empty without a split, where col_ptr_[j + 1] bounds it.
  std::vector<Index> bin_row_end_;
  /// The S schedule, step 3's serial replay of the forward sweep: S row
  /// s_begin + i holds its entries of every column (bin and S) at
  /// [s_row_ptr_[i], s_row_ptr_[i + 1]), columns in AMD order.
  std::vector<Index> s_row_ptr_ = {0};
  std::vector<Vertex> s_cols_;
  std::vector<double> s_values_;
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
