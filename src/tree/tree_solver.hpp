#pragma once

/// \file tree_solver.hpp
/// Exact O(n) solver for spanning-tree Laplacian systems L_T x = b.
///
/// This is the workhorse behind (i) the generalized power iterations of the
/// spectral embedding when the sparsifier is still a bare tree, and (ii)
/// the spanning-tree preconditioner used inside PCG once the sparsifier has
/// been densified (densification only adds off-tree edges, so the tree
/// stays a subgraph of P).
///
/// Algorithm: with the tree rooted, the current on the edge (v, parent(v))
/// must equal the total injection Σ b over v's subtree; a leaf-to-root pass
/// accumulates those flows, a root-to-leaf pass integrates potentials
/// x_v = x_parent + flow_v / w_v. The right-hand side is first projected to
/// zero mean (Laplacian range), and the output is returned with zero mean
/// (pseudoinverse convention).

#include <span>

#include "la/vector_ops.hpp"
#include "tree/spanning_tree.hpp"

namespace ssp {

class TreeSolver {
 public:
  /// Captures the rooted structure of `t` (which must outlive the solver).
  explicit TreeSolver(const SpanningTree& t);

  /// x := L_T⁺ b (exact up to rounding). Sizes must equal n.
  ///
  /// Re-entrant: safe to call concurrently from several threads on the
  /// same solver (the flow scratch lives in thread-local storage, reused
  /// across solves on each thread). This is what lets one TreeSolver back
  /// every per-probe PCG solve of the parallel embedding loop.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Allocating convenience overload.
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Blocked multi-RHS solve: X := L_T⁺ B for row-major n×r panels
  /// (`b.size() == x.size() == n*r`; row = vertex, the r RHS values of a
  /// vertex contiguous). One leaf-to-root and one root-to-leaf traversal
  /// serve all r right-hand sides — the tree walk (order/parent/weight
  /// traffic) is amortized r times versus r calls to `solve` — and each
  /// panel column is bit-identical to the corresponding `solve` call, for
  /// every kernel backend. Re-entrant like `solve` (thread-local panel
  /// scratch).
  void solve_multi(std::span<const double> b, std::span<double> x,
                   Index r) const;

  [[nodiscard]] Vertex num_vertices() const { return t_->num_vertices(); }

 private:
  const SpanningTree* t_;
};

}  // namespace ssp
