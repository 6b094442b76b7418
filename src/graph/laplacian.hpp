#pragma once

/// \file laplacian.hpp
/// Graph ↔ matrix conversions.
///
/// `laplacian(g)` assembles the SDD graph Laplacian of paper Eq. (1):
///   L(p,q) = -w(p,q) for edges, L(p,p) = weighted degree, else 0.
///
/// `graph_from_matrix` implements the paper's §4 conversion rule for general
/// sparse matrices: "each edge weight [is] the absolute value of each
/// nonzero entry in the lower triangular matrix; if edge weights are not
/// available [pattern matrix], a unit edge weight will be assigned".

#include <span>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "la/csr_matrix.hpp"

namespace ssp {

/// Graph Laplacian L = D - W (symmetric, rows sum to zero). Consumes a
/// `GraphView`, so heap graphs (implicit conversion) and mmap'd `.sspb`
/// graphs assemble bit-identical matrices.
[[nodiscard]] CsrMatrix laplacian(const GraphView& g);

/// Laplacian of the subgraph made of `edge_ids` (in that order; repeated
/// ids count as parallel edges) on all of g's vertices: bit-identical to
/// `laplacian(g.edge_subgraph(edge_ids))` without building that graph.
[[nodiscard]] CsrMatrix laplacian(const Graph& g,
                                  std::span<const EdgeId> edge_ids);

/// Weighted adjacency matrix W.
[[nodiscard]] CsrMatrix adjacency_matrix(const GraphView& g);

/// Inverse of `laplacian`: off-diagonal entries become edges with weight
/// |L(i,j)| for i < j. Diagonal entries are ignored (recomputed by the
/// Laplacian identity). Throws when L is not square or has positive
/// off-diagonal entries beyond `tol`.
[[nodiscard]] Graph graph_from_laplacian(const CsrMatrix& l,
                                         double tol = 1e-9);

/// Paper §4 rule for arbitrary (square) sparse matrices, applied
/// uniformly over both triangles: each off-diagonal pair {i, j} with at
/// least one nonzero entry becomes the edge {i, j} with weight
/// max(|a_ij|, |a_ji|) (or 1.0 when `unit_weights` is set, matching
/// pattern-only matrix files). For symmetric storage this reduces to the
/// paper's "absolute value of each lower-triangular nonzero"; for skew or
/// asymmetric inputs the magnitude conversion guarantees positive
/// weights, and one-sided upper-triangle files keep their edges instead
/// of silently losing them. Self-loops are discarded, duplicate edges
/// coalesced, and non-finite entries rejected with std::invalid_argument.
[[nodiscard]] Graph graph_from_matrix(const CsrMatrix& a,
                                      bool unit_weights = false);

/// L(p,p) for all p as a vector (weighted degrees).
[[nodiscard]] Vec weighted_degrees(const GraphView& g);

}  // namespace ssp
