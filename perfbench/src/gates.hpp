#pragma once

/// \file gates.hpp
/// Correctness gates of the benchmark, computed independently of the
/// library's own checks (plain loops, own union-find). Each returns an
/// empty string when the output is correct, else what is wrong.

#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "la/csr_matrix.hpp"

namespace perfbench {

/// `edges` (ids into `g`) form a connected spanning subgraph of `g`: every
/// id valid and distinct, and the edges connect all of g's vertices.
std::string check_spanning_subgraph(const ssp::Graph& g,
                                    std::span<const ssp::EdgeId> edges);

/// Same check for a sparsifier given as endpoint rows: every row is an
/// edge of `g` with g's weight, no edge twice, and the rows connect all
/// of g's vertices.
std::string check_spanning_rows(const ssp::Graph& g,
                                std::span<const ssp::Edge> rows);

/// ||b - L x||_2 / ||b||_2, with L x recomputed by a plain CSR loop.
double relative_residual(const ssp::CsrMatrix& l, std::span<const double> b,
                         std::span<const double> x);

/// Rows of `g`'s edges `edges`, in order (the `query edges` layout).
std::vector<ssp::Edge> edge_rows(const ssp::Graph& g,
                                 std::span<const ssp::EdgeId> edges);

/// Bit-exact comparison of two row lists; empty when equal, else the
/// first difference.
std::string compare_rows(std::span<const ssp::Edge> got,
                         std::span<const ssp::Edge> want);

}  // namespace perfbench
