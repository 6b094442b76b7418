#include "graph/laplacian.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace ssp {

namespace {

using Entry = std::pair<Vertex, double>;  // (column, value)

// Laplacian of the edge sequence edge_at(0), ..., edge_at(m - 1), parallel
// entries included, assembled without triplets. It is bit-identical to
// `CsrMatrix::from_triplets` over the stream (u,v,-w), (v,u,-w), (u,u,w),
// (v,v,w) per edge: there a row holds its entries in edge order, a stable
// sort by column keeps that order among equal columns, and each column is
// summed from 0.0 in that order. Here the diagonal is summed in edge
// order, and two counting sorts by row order the off-diagonal entries the
// same way without comparing any.
template <class EdgeAt>
CsrMatrix assemble_laplacian(Index n, EdgeId m, const EdgeAt& edge_at) {
  const auto rows = static_cast<std::size_t>(n);
  std::vector<Index> row_ptr(rows + 1, 0);
  for (EdgeId k = 0; k < m; ++k) {
    const Edge e = edge_at(k);
    ++row_ptr[static_cast<std::size_t>(e.u) + 1];
    ++row_ptr[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];

  // Pass 1: each row's off-diagonal entries in edge order.
  std::vector<Entry> by_edge(static_cast<std::size_t>(row_ptr[rows]));
  std::vector<double> diag(rows, 0.0);
  std::vector<Index> slot(row_ptr.begin(), row_ptr.end() - 1);
  for (EdgeId k = 0; k < m; ++k) {
    const Edge e = edge_at(k);
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    by_edge[static_cast<std::size_t>(slot[u]++)] = {e.v, -e.weight};
    by_edge[static_cast<std::size_t>(slot[v]++)] = {e.u, -e.weight};
    diag[u] += e.weight;
    diag[v] += e.weight;
  }
  // Pass 2: L is symmetric, so pass-1 row c lists column c's entries in
  // edge order. Scattering the rows c = 0, 1, ... back by row hands every
  // row its entries by ascending column, equal columns in edge order: the
  // stable sort by column.
  std::vector<Entry> by_col(by_edge.size());
  slot.assign(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t c = 0; c < rows; ++c) {
    for (auto k = static_cast<std::size_t>(row_ptr[c]);
         k < static_cast<std::size_t>(row_ptr[c + 1]); ++k) {
      const auto [r, value] = by_edge[k];
      by_col[static_cast<std::size_t>(slot[static_cast<std::size_t>(r)]++)] =
          {static_cast<Vertex>(c), value};
    }
  }

  std::vector<Vertex> col_idx;
  std::vector<double> values;
  col_idx.reserve(by_col.size() + rows);
  values.reserve(by_col.size() + rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto first = by_col.begin() + static_cast<std::ptrdiff_t>(row_ptr[r]);
    const auto last =
        by_col.begin() + static_cast<std::ptrdiff_t>(row_ptr[r + 1]);
    row_ptr[r] = static_cast<Index>(col_idx.size());
    if (first == last) continue;  // isolated vertex: empty row
    const auto diag_col = static_cast<Vertex>(r);
    bool diag_done = false;
    for (auto it = first; it != last;) {
      const Vertex c = it->first;
      if (!diag_done && diag_col < c) {
        col_idx.push_back(diag_col);
        values.push_back(diag[r]);
        diag_done = true;
      }
      double sum = 0.0;
      for (; it != last && it->first == c; ++it) sum += it->second;
      col_idx.push_back(c);
      values.push_back(sum);
    }
    if (!diag_done) {
      col_idx.push_back(diag_col);
      values.push_back(diag[r]);
    }
  }
  row_ptr[rows] = static_cast<Index>(col_idx.size());
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace

CsrMatrix laplacian(const GraphView& g) {
  return assemble_laplacian(g.num_vertices(), g.num_edges(),
                            [&g](EdgeId k) { return g.edge(k); });
}

CsrMatrix laplacian(const Graph& g, std::span<const EdgeId> edge_ids) {
  return assemble_laplacian(
      g.num_vertices(), static_cast<EdgeId>(edge_ids.size()),
      [&](EdgeId k) { return g.edge(edge_ids[static_cast<std::size_t>(k)]); });
}

CsrMatrix adjacency_matrix(const GraphView& g) {
  const Index n = g.num_vertices();
  std::vector<Triplet> ts;
  ts.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge e = g.edge(id);
    ts.push_back({e.u, e.v, e.weight});
    ts.push_back({e.v, e.u, e.weight});
  }
  return CsrMatrix::from_triplets(n, n, ts);
}

Graph graph_from_laplacian(const CsrMatrix& l, double tol) {
  SSP_REQUIRE(l.rows() == l.cols(), "graph_from_laplacian: matrix not square");
  Graph g(static_cast<Vertex>(l.rows()));
  for (Index r = 0; r < l.rows(); ++r) {
    const auto cols = l.row_cols(r);
    const auto vals = l.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Index c = cols[k];
      if (c <= r) continue;  // use strict upper triangle once
      const double v = vals[k];
      if (v == 0.0) continue;
      SSP_REQUIRE(v <= tol, "graph_from_laplacian: positive off-diagonal");
      const double w = std::abs(v);
      if (w > 0.0) {
        g.add_edge(static_cast<Vertex>(r), static_cast<Vertex>(c), w);
      }
    }
  }
  g.finalize();
  return g;
}

Graph graph_from_matrix(const CsrMatrix& a, bool unit_weights) {
  SSP_REQUIRE(a.rows() == a.cols(), "graph_from_matrix: matrix not square");
  // Structural presence, not value: an explicitly stored 0.0 still claims
  // ownership of its pair, otherwise a zero lower entry with a nonzero
  // upper mirror would be added by both branches and double-counted.
  const auto has_stored_entry = [&a](Index row, Index col) {
    const auto cols = a.row_cols(row);
    return std::binary_search(cols.begin(), cols.end(),
                              static_cast<Vertex>(col));
  };
  Graph g(static_cast<Vertex>(a.rows()));
  for (Index r = 0; r < a.rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Index c = cols[k];
      const double v = vals[k];
      SSP_REQUIRE(std::isfinite(v),
                  "graph_from_matrix: non-finite entry at (" +
                      std::to_string(r + 1) + ", " + std::to_string(c + 1) +
                      ") — cannot convert to an edge weight");
      if (c == r) continue;  // self-loops discarded
      double magnitude = 0.0;
      if (c < r) {
        // Lower-triangle entry: owns the pair. The §4 magnitude rule is
        // applied uniformly across both triangles — a mirrored entry
        // (from symmetric/skew-symmetric expansion or an explicitly
        // two-sided general file) contributes its magnitude too, so
        // negative or sign-flipped mirrors can never reach the Graph as
        // non-positive weights.
        magnitude = std::max(std::abs(v), std::abs(a.at(c, r)));
      } else {
        // Upper-triangle entry: only owns the pair when no lower mirror
        // is stored (one-sided upper-triangle files previously lost
        // these edges entirely).
        if (has_stored_entry(c, r)) continue;
        magnitude = std::abs(v);
      }
      if (magnitude <= 0.0) continue;  // explicit zeros are non-edges
      g.add_edge(static_cast<Vertex>(r), static_cast<Vertex>(c),
                 unit_weights ? 1.0 : magnitude);
    }
  }
  g.coalesce_parallel_edges();
  g.finalize();
  return g;
}

Vec weighted_degrees(const GraphView& g) {
  Vec d(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge e = g.edge(id);
    d[static_cast<std::size_t>(e.u)] += e.weight;
    d[static_cast<std::size_t>(e.v)] += e.weight;
  }
  return d;
}

}  // namespace ssp
