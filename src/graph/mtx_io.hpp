#pragma once

/// \file mtx_io.hpp
/// Matrix Market (.mtx) I/O — the interchange format of the SuiteSparse/UFL
/// collection the paper evaluates on. The collection is not shipped with
/// the repository, so the offline benchmarks run seeded synthetic proxies
/// of its matrices (bench/bench_common.hpp, "Proxy workloads"), but any
/// real SuiteSparse matrix drops in via `load_graph_mtx`.
///
/// Supported header: `matrix coordinate {real|integer|pattern}
/// {general|symmetric|skew-symmetric}`. Comments (%) and blank lines are
/// skipped. 1-based indices per the spec.

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "la/csr_matrix.hpp"

namespace ssp {

/// Parses a Matrix Market stream into a CSR matrix. Symmetric files are
/// expanded (both triangles stored). Throws std::runtime_error on malformed
/// input.
[[nodiscard]] CsrMatrix read_matrix_market(std::istream& in);

/// File-path convenience overload; throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes `a` in `coordinate real general` format.
void write_matrix_market(std::ostream& out, const CsrMatrix& a);
void write_matrix_market_file(const std::string& path, const CsrMatrix& a);

/// Loads a graph from a Matrix Market file using the paper §4 conversion
/// (absolute values of strict lower-triangular entries; unit weights for
/// pattern files), then keeps the largest connected component.
[[nodiscard]] Graph load_graph_mtx(const std::string& path);

/// Writes the weighted adjacency of `g` as a symmetric .mtx (lower
/// triangle, edge-id order). Consumes a `GraphView`: heap graphs (the
/// generators' output path) convert implicitly, and mmap'd `.sspb` graphs
/// export without materializing on the heap.
void save_graph_mtx(const std::string& path, const GraphView& g);

}  // namespace ssp
