#include "solver/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "la/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "solver/ordering.hpp"
#include "util/assert.hpp"

namespace ssp {

namespace {

using Csr = CholeskyWorkspace::Csr;

Index csr_rows(const Csr& a) {
  return static_cast<Index>(a.row_ptr.size()) - 1;
}

/// Copies `a` into `out`, dropping row/column `pin` (none when pin < 0) and
/// compacting the indices past it. Compaction is monotone, so rows stay
/// sorted; the result equals the triplet-assembled grounded matrix.
void build_grounded(const CsrMatrix& a, Index pin, Csr& out) {
  const Index n = a.rows();
  out.row_ptr.assign(1, 0);
  out.cols.clear();
  out.vals.clear();
  for (Index r = 0; r < n; ++r) {
    if (r == pin) continue;
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == pin) continue;
      out.cols.push_back(pin >= 0 && cols[k] > pin ? cols[k] - 1 : cols[k]);
      out.vals.push_back(vals[k]);
    }
    out.row_ptr.push_back(static_cast<Index>(out.cols.size()));
  }
}

/// out(i, j) = a(order[i], order[j]), rows sorted by column.
void permute(const Csr& a, std::span<const Vertex> order,
             std::span<const Vertex> inverse,
             std::vector<std::pair<Vertex, double>>& row, Csr& out) {
  const Index n = csr_rows(a);
  out.row_ptr.assign(1, 0);
  out.cols.clear();
  out.vals.clear();
  for (Index i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
    row.clear();
    for (Index p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const auto c = static_cast<std::size_t>(p);
      row.emplace_back(inverse[static_cast<std::size_t>(a.cols[c])],
                       a.vals[c]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [c, v] : row) {
      out.cols.push_back(c);
      out.vals.push_back(v);
    }
    out.row_ptr.push_back(static_cast<Index>(out.cols.size()));
  }
}

/// Liu's elimination tree over the rows of a symmetric pattern.
void etree(std::span<const Index> row_ptr, std::span<const Vertex> cols,
           std::vector<Vertex>& parent, std::vector<Vertex>& ancestor) {
  const auto n = row_ptr.size() - 1;
  parent.assign(n, kInvalidVertex);
  ancestor.assign(n, kInvalidVertex);
  for (std::size_t k = 0; k < n; ++k) {
    for (Index p = row_ptr[k]; p < row_ptr[k + 1]; ++p) {
      Vertex x = cols[static_cast<std::size_t>(p)];
      while (x != kInvalidVertex && x < static_cast<Vertex>(k)) {
        const Vertex next = ancestor[static_cast<std::size_t>(x)];
        ancestor[static_cast<std::size_t>(x)] = static_cast<Vertex>(k);
        if (next == kInvalidVertex) {
          parent[static_cast<std::size_t>(x)] = static_cast<Vertex>(k);
          break;
        }
        x = next;
      }
    }
  }
}

/// Pattern of row k of the Cholesky factor via elimination-tree reach
/// (CSparse `cs_ereach`): for every entry A(k, i) with i < k, walk up the
/// etree until hitting an already-marked vertex, collecting the path. The
/// returned range s[top..n) lists the pattern in topological order; the
/// path is staged in s[0..len), which never meets s[top..n).
Index ereach(const Csr& a, Index k, std::span<const Vertex> parent,
             std::span<Vertex> s, std::span<Vertex> w) {
  const auto mark = static_cast<Vertex>(k);
  Index top = csr_rows(a);
  w[static_cast<std::size_t>(k)] = mark;
  const auto kk = static_cast<std::size_t>(k);
  for (Index p = a.row_ptr[kk]; p < a.row_ptr[kk + 1]; ++p) {
    Vertex x = a.cols[static_cast<std::size_t>(p)];
    if (x >= k) continue;
    std::size_t len = 0;
    while (x != kInvalidVertex && w[static_cast<std::size_t>(x)] != mark) {
      s[len++] = x;
      w[static_cast<std::size_t>(x)] = mark;
      x = parent[static_cast<std::size_t>(x)];
    }
    while (len > 0) s[static_cast<std::size_t>(--top)] = s[--len];
  }
  return top;
}

}  // namespace

std::vector<Vertex> elimination_tree(const CsrMatrix& a) {
  SSP_REQUIRE(a.rows() == a.cols(), "etree: matrix not square");
  std::vector<Vertex> parent;
  std::vector<Vertex> ancestor;
  etree(a.row_ptr(), a.col_idx(), parent, ancestor);
  return parent;
}

bool SparseCholesky::factor_grounded(Index outer_n, Index pin,
                                     const CholeskyOptions& opts,
                                     CholeskyWorkspace& ws,
                                     Index max_factor_nnz) {
  const Index n = csr_rows(ws.grounded);
  const auto un = static_cast<std::size_t>(n);
  n_ = n;
  outer_n_ = outer_n;
  pin_ = pin;

  switch (opts.ordering) {
    case CholeskyOptions::Ordering::kNatural:
      ws.order = natural_ordering(n);
      break;
    case CholeskyOptions::Ordering::kRcm:
      ws.order = rcm_ordering(CsrMatrix(n, n, ws.grounded.row_ptr,
                                        ws.grounded.cols, ws.grounded.vals));
      break;
    case CholeskyOptions::Ordering::kMinDegree:
      if (!min_degree_ordering(ws.grounded.row_ptr, ws.grounded.cols,
                               ws.ordering, ws.order, max_factor_nnz)) {
        clear_over_budget();
        return false;
      }
      break;
  }
  ws.inverse.assign(un, kInvalidVertex);
  outer_index_.resize(un);
  for (std::size_t i = 0; i < un; ++i) {
    const Vertex g = ws.order[i];
    ws.inverse[static_cast<std::size_t>(g)] = static_cast<Vertex>(i);
    outer_index_[i] = pin >= 0 && g >= pin ? g + 1 : g;
  }
  permute(ws.grounded, ws.order, ws.inverse, ws.row, ws.permuted);
  const Csr& ap = ws.permuted;
  etree(ap.row_ptr, ap.cols, ws.parent, ws.ancestor);

  // Symbolic pass: column counts via per-row ereach (next[] holds them).
  ws.reach.resize(un);
  ws.flag.assign(un, kInvalidVertex);
  ws.next.assign(un, 1);  // diagonal
  for (Index k = 0; k < n; ++k) {
    const Index top = ereach(ap, k, ws.parent, ws.reach, ws.flag);
    for (Index t = top; t < n; ++t) {
      const Vertex j = ws.reach[static_cast<std::size_t>(t)];
      ++ws.next[static_cast<std::size_t>(j)];
    }
  }

  col_ptr_.assign(un + 1, 0);
  for (std::size_t j = 0; j < un; ++j) {
    col_ptr_[j + 1] = col_ptr_[j] + ws.next[j];
  }
  const Index lnz = col_ptr_[un];
  if (lnz > max_factor_nnz) {
    clear_over_budget();
    return false;
  }
  rows_.assign(static_cast<std::size_t>(lnz), 0);
  values_.assign(static_cast<std::size_t>(lnz), 0.0);

  // next[j]: next free slot in column j. Slot 0 of each column = diagonal.
  for (std::size_t j = 0; j < un; ++j) {
    const Index head = col_ptr_[j];
    rows_[static_cast<std::size_t>(head)] = static_cast<Vertex>(j);
    ws.next[j] = head + 1;
  }

  // Numeric up-looking pass.
  std::fill(ws.flag.begin(), ws.flag.end(), kInvalidVertex);
  ws.x.assign(un, 0.0);
  Vec& x = ws.x;
  for (Index k = 0; k < n; ++k) {
    const Index top = ereach(ap, k, ws.parent, ws.reach, ws.flag);
    // Scatter row k of A (strictly-lower part) into x; diagonal into d.
    double d = opts.diagonal_shift;
    const auto kk = static_cast<std::size_t>(k);
    for (Index p = ap.row_ptr[kk]; p < ap.row_ptr[kk + 1]; ++p) {
      const Vertex c = ap.cols[static_cast<std::size_t>(p)];
      if (c < k) {
        x[static_cast<std::size_t>(c)] = ap.vals[static_cast<std::size_t>(p)];
      } else if (c == k) {
        d += ap.vals[static_cast<std::size_t>(p)];
      }
    }
    // Sparse triangular solve over the pattern (topological order).
    for (Index t = top; t < n; ++t) {
      const Vertex j = ws.reach[static_cast<std::size_t>(t)];
      const auto uj = static_cast<std::size_t>(j);
      const Index jhead = col_ptr_[uj];
      const double ljj = values_[static_cast<std::size_t>(jhead)];
      const double lkj = x[uj] / ljj;
      x[uj] = 0.0;
      for (Index p = jhead + 1; p < ws.next[uj]; ++p) {
        x[static_cast<std::size_t>(rows_[static_cast<std::size_t>(p)])] -=
            values_[static_cast<std::size_t>(p)] * lkj;
      }
      d -= lkj * lkj;
      const Index slot = ws.next[uj]++;
      rows_[static_cast<std::size_t>(slot)] = static_cast<Vertex>(k);
      values_[static_cast<std::size_t>(slot)] = lkj;
    }
    if (d <= 0.0) {
      throw std::runtime_error(
          "sparse Cholesky: non-positive pivot at column " +
          std::to_string(k) + " (matrix not SPD)");
    }
    values_[static_cast<std::size_t>(col_ptr_[kk])] = std::sqrt(d);
  }

  Index tril_nnz = 0;
  for (std::size_t r = 0; r < un; ++r) {
    for (Index p = ap.row_ptr[r]; p < ap.row_ptr[r + 1]; ++p) {
      if (static_cast<std::size_t>(ap.cols[static_cast<std::size_t>(p)]) <= r) {
        ++tril_nnz;
      }
    }
  }
  fill_ratio_ = tril_nnz > 0 ? static_cast<double>(lnz) /
                                   static_cast<double>(tril_nnz)
                             : 1.0;
  obs::counter_add("solver.cholesky.factors", 1);
  obs::counter_add("solver.cholesky.factor_nnz",
                   static_cast<std::uint64_t>(lnz));
  return true;
}

void SparseCholesky::clear_over_budget() {
  n_ = 0;
  outer_n_ = 0;
  pin_ = -1;
  outer_index_.clear();
  col_ptr_.assign(1, 0);
  rows_.clear();
  values_.clear();
  fill_ratio_ = 1.0;
  obs::counter_add("solver.cholesky.over_budget", 1);
}

SparseCholesky SparseCholesky::factor(const CsrMatrix& a,
                                      const CholeskyOptions& opts) {
  SSP_REQUIRE(a.rows() == a.cols(), "cholesky: matrix not square");
  SSP_REQUIRE(a.rows() >= 1, "cholesky: empty matrix");
  SparseCholesky c;
  CholeskyWorkspace ws;
  build_grounded(a, -1, ws.grounded);
  (void)c.factor_grounded(a.rows(), -1, opts, ws,
                          std::numeric_limits<Index>::max());
  return c;
}

SparseCholesky SparseCholesky::factor_laplacian(const CsrMatrix& l,
                                                const CholeskyOptions& opts,
                                                Index pin) {
  SparseCholesky c;
  CholeskyWorkspace ws;
  (void)c.refactor_laplacian(l, opts, ws, pin);
  return c;
}

bool SparseCholesky::refactor_laplacian(const CsrMatrix& l,
                                        const CholeskyOptions& opts,
                                        CholeskyWorkspace& ws, Index pin,
                                        Index max_factor_nnz) {
  SSP_REQUIRE(l.rows() == l.cols(), "cholesky: matrix not square");
  const Index n = l.rows();
  SSP_REQUIRE(n >= 2, "cholesky: Laplacian needs >= 2 vertices");
  if (pin < 0) pin = n - 1;
  SSP_REQUIRE(pin < n, "cholesky: pin out of range");
  build_grounded(l, pin, ws.grounded);
  return factor_grounded(n, pin, opts, ws, max_factor_nnz);
}

void SparseCholesky::solve(std::span<const double> b,
                           std::span<double> x) const {
  SSP_REQUIRE(static_cast<Index>(b.size()) == outer_n_, "cholesky solve: b size");
  SSP_REQUIRE(static_cast<Index>(x.size()) == outer_n_, "cholesky solve: x size");
  obs::counter_add("solver.cholesky.solves", 1);
  const bool laplacian_mode = pin_ >= 0;
  const auto n = static_cast<std::size_t>(n_);

  // Gather through the folded grounding+permutation map, projecting onto
  // range(L) on the way in Laplacian mode (b + (−mean) matches
  // project_out_mean bit for bit).
  thread_local Vec y;
  y.resize(n);
  const double shift = laplacian_mode ? -mean(b) : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double bi = b[static_cast<std::size_t>(outer_index_[i])];
    y[i] = laplacian_mode ? bi + shift : bi;
  }

  // Forward solve L z = y (CSC, diagonal first per column).
  for (std::size_t j = 0; j < n; ++j) {
    const Index head = col_ptr_[j];
    const Index tail = col_ptr_[j + 1];
    const double zj = y[j] / values_[static_cast<std::size_t>(head)];
    y[j] = zj;
    for (Index p = head + 1; p < tail; ++p) {
      y[static_cast<std::size_t>(rows_[static_cast<std::size_t>(p)])] -=
          values_[static_cast<std::size_t>(p)] * zj;
    }
  }
  // Backward solve L^T w = z.
  for (std::size_t j = n; j-- > 0;) {
    const Index head = col_ptr_[j];
    const Index tail = col_ptr_[j + 1];
    double s = y[j];
    for (Index p = head + 1; p < tail; ++p) {
      s -= values_[static_cast<std::size_t>(p)] *
           y[static_cast<std::size_t>(rows_[static_cast<std::size_t>(p)])];
    }
    y[j] = s / values_[static_cast<std::size_t>(head)];
  }

  // Scatter back; the grounded entry is 0 before re-centering.
  if (laplacian_mode) x[static_cast<std::size_t>(pin_)] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(outer_index_[i])] = y[i];
  }
  if (laplacian_mode) project_out_mean(x);
}

Vec SparseCholesky::solve(std::span<const double> b) const {
  Vec x(static_cast<std::size_t>(outer_n_));
  solve(b, x);
  return x;
}

std::size_t SparseCholesky::memory_bytes() const {
  return rows_.size() * sizeof(Vertex) + values_.size() * sizeof(double) +
         col_ptr_.size() * sizeof(Index) +
         outer_index_.size() * sizeof(Vertex);
}

}  // namespace ssp
