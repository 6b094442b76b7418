#pragma once

/// \file ordering.hpp
/// Fill-reducing orderings for the sparse Cholesky factorization.
///
/// * Reverse Cuthill–McKee (default): bandwidth-reducing BFS ordering from
///   a pseudo-peripheral vertex — effective on the mesh matrices of the
///   paper's Table 3 direct-solver baseline.
/// * Exact minimum degree: repeatedly eliminates the vertex of smallest
///   degree in the elimination graph, ties broken by smallest id. Runs on a
///   quotient graph (eliminated vertices become elements holding their
///   fill clique implicitly) over flat, reusable arrays; degrees are exact,
///   so the permutation equals the explicit fill-graph greedy's. The
///   default ordering of the densification loop's L_P factorizations.

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "la/csr_matrix.hpp"
#include "util/types.hpp"

namespace ssp {

/// Result convention: `order[new_index] = old_index` (a permutation of
/// 0..n-1). Symmetric pattern is assumed (only the pattern is read).
[[nodiscard]] std::vector<Vertex> rcm_ordering(const CsrMatrix& a);

/// Scratch of the minimum-degree ordering, reused across calls so repeated
/// orderings (one per densification round) keep every buffer's capacity.
struct MinDegreeWorkspace {
  std::vector<Index> seg_begin;    ///< per vertex: start of its list segment
  std::vector<Index> num_elems;    ///< adjacent elements (segment head)
  std::vector<Index> num_vars;     ///< adjacent variables (after the elements)
  std::vector<Vertex> lists;       ///< per-vertex segments, original capacity
  std::vector<Index> elem_begin;   ///< element e's variables in elem_pool
  std::vector<Index> elem_len;
  std::vector<Vertex> elem_pool;
  std::vector<Index> degree;       ///< exact elimination-graph degree
  std::vector<char> state;         ///< variable / element / absorbed element
  std::vector<std::int64_t> mark;  ///< set-union stamps
  std::vector<std::pair<Index, Vertex>> heap;  ///< lazy (degree, id) min-heap
  std::vector<Vertex> kept;        ///< surviving variables of one segment
};

/// Minimum-degree ordering of the pattern given as raw CSR arrays
/// (`row_ptr` of size n+1; diagonal entries ignored). Overwrites `order`.
/// Degrees are exact, so the running sum of (degree + 1) over eliminated
/// vertices is the nonzero count of the Cholesky factor under this order;
/// once it exceeds `max_factor_nnz` the pass stops, leaving `order`
/// partial, and returns false.
bool min_degree_ordering(
    std::span<const Index> row_ptr, std::span<const Vertex> col_idx,
    MinDegreeWorkspace& ws, std::vector<Vertex>& order,
    Index max_factor_nnz = std::numeric_limits<Index>::max());

[[nodiscard]] std::vector<Vertex> min_degree_ordering(const CsrMatrix& a);

/// Identity ordering (natural).
[[nodiscard]] std::vector<Vertex> natural_ordering(Index n);

/// Symmetric permutation: B(i, j) = A(order[i], order[j]).
[[nodiscard]] CsrMatrix permute_symmetric(const CsrMatrix& a,
                                          std::span<const Vertex> order);

}  // namespace ssp
