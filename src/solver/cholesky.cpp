#include "solver/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "la/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "solver/ordering.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

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

/// Forward solve L z = y over columns [lo, hi), each column's rows up to
/// row_end[j] (CSC, diagonal first per column).
void forward_sweep(const Index* col_ptr, const Index* row_end,
                   const Vertex* rows, const double* values, double* y,
                   Index lo, Index hi) {
  for (Index j = lo; j < hi; ++j) {
    const Index head = col_ptr[j];
    const double zj = y[j] / values[head];
    y[j] = zj;
    for (Index p = head + 1; p < row_end[j]; ++p) {
      y[rows[p]] -= values[p] * zj;
    }
  }
}

/// Backward solve L^T w = z over columns [lo, hi), last column first.
void backward_sweep(const Index* col_ptr, const Vertex* rows,
                    const double* values, double* y, Index lo, Index hi) {
  for (Index j = hi; j-- > lo;) {
    const Index head = col_ptr[j];
    const Index tail = col_ptr[j + 1];
    double s = y[j];
    for (Index p = head + 1; p < tail; ++p) {
      s -= values[p] * y[rows[p]];
    }
    y[j] = s / values[head];
  }
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
  for (std::size_t i = 0; i < un; ++i) {
    ws.inverse[static_cast<std::size_t>(ws.order[i])] = static_cast<Vertex>(i);
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

  Index lnz = 0;
  for (std::size_t j = 0; j < un; ++j) lnz += ws.next[j];
  if (lnz > max_factor_nnz) {
    clear_over_budget();
    return false;
  }
  // The bins are planned from the etree and the column counts, so every
  // column is stored at its relabeled place from the start and the numeric
  // pass writes AMD column j at head[j].
  plan_bins(ws, lnz);
  const bool split = bin_begin_.size() > 2;
  // Column sizes, and grounding and both permutations folded into one
  // gather/scatter map.
  col_ptr_.assign(un + 1, 0);
  outer_index_.resize(un);
  for (std::size_t j = 0; j < un; ++j) {
    const auto q = split ? static_cast<std::size_t>(ws.relabel[j]) : j;
    col_ptr_[q + 1] = ws.next[j];
    const Vertex g = ws.order[j];
    outer_index_[q] = pin >= 0 && g >= pin ? g + 1 : g;
  }
  for (std::size_t q = 0; q < un; ++q) col_ptr_[q + 1] += col_ptr_[q];
  const Index* head = col_ptr_.data();
  if (split) {
    ws.head.resize(un);
    for (std::size_t j = 0; j < un; ++j) {
      ws.head[j] = col_ptr_[static_cast<std::size_t>(ws.relabel[j])];
    }
    head = ws.head.data();
  }
  rows_.assign(static_cast<std::size_t>(lnz), 0);
  values_.assign(static_cast<std::size_t>(lnz), 0.0);

  // next[j]: next free slot in column j. Slot 0 of each column = diagonal.
  // Rows are AMD indices until finish_bins relabels them.
  for (std::size_t j = 0; j < un; ++j) {
    rows_[static_cast<std::size_t>(head[j])] = static_cast<Vertex>(j);
    ws.next[j] = head[j] + 1;
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
      const Index jhead = head[uj];
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
    values_[static_cast<std::size_t>(head[kk])] = std::sqrt(d);
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
  if (split) finish_bins(ws);
  obs::counter_add("solver.cholesky.factors", 1);
  obs::counter_add("solver.cholesky.factor_nnz",
                   static_cast<std::uint64_t>(lnz));
  obs::counter_add(
      "solver.cholesky.split_columns",
      static_cast<std::uint64_t>(n_ - bin_begin_.back()));
  return true;
}

void SparseCholesky::plan_bins(CholeskyWorkspace& ws, Index lnz) {
  const Index n = n_;
  const auto un = static_cast<std::size_t>(n);
  bin_begin_.assign({0, n});
  bin_row_end_.clear();
  s_row_ptr_.assign(1, 0);
  s_cols_.clear();
  s_values_.clear();
  const int k = default_threads();
  const Index cap = n / kMaxSeparatorDivisor;
  if (k < 2 || lnz < kSplitMinNnz || cap < 1) return;
  const auto uk = static_cast<std::size_t>(k);
  const auto s_bin = static_cast<Vertex>(k);  // the bin mark of S

  // Subtree nonzeros of the etree (children precede parents) from the
  // factor's column counts in ws.next.
  const std::vector<Vertex>& parent = ws.parent;
  std::vector<Index>& sub = ws.subtree_nnz;
  std::vector<Vertex>& roots = ws.free_roots;
  // The etree's children as linked lists, in two arrays that are free
  // once the etree and the permutation are built.
  std::vector<Vertex>& first_child = ws.ancestor;
  std::vector<Vertex>& next_sibling = ws.inverse;
  sub.assign(un, 0);
  first_child.assign(un, kInvalidVertex);
  next_sibling.resize(un);
  roots.clear();
  for (std::size_t j = 0; j < un; ++j) {
    sub[j] += ws.next[j];
    const Vertex p = parent[j];
    if (p == kInvalidVertex) {
      roots.push_back(static_cast<Vertex>(j));
      continue;
    }
    const auto up = static_cast<std::size_t>(p);
    sub[up] += sub[j];
    next_sibling[j] = first_child[up];
    first_child[up] = static_cast<Vertex>(j);
  }

  // Move S out, heaviest free subtree first, until the free subtrees pack
  // into k bins (largest first into the lightest bin) within tolerance.
  const auto heavier = [&sub](Vertex a, Vertex b) {
    const Index wa = sub[static_cast<std::size_t>(a)];
    const Index wb = sub[static_cast<std::size_t>(b)];
    return wa != wb ? wa > wb : a < b;
  };
  const auto lighter = [&heavier](Vertex a, Vertex b) {
    return heavier(b, a);
  };
  std::vector<Vertex>& bin = ws.relabel;  // each column's bin, then label
  std::vector<Index>& load = ws.bin_load;
  bin.assign(un, kInvalidVertex);
  std::make_heap(roots.begin(), roots.end(), lighter);
  Index free_nnz = lnz;
  Index s_columns = 0;
  const auto fits = [&](Index heaviest) {
    return static_cast<double>(heaviest) * static_cast<double>(k) <=
           (1.0 + kBinImbalance) * static_cast<double>(free_nnz);
  };
  const auto pack = [&] {
    ws.packed.assign(roots.begin(), roots.end());
    std::sort(ws.packed.begin(), ws.packed.end(), heavier);
    load.assign(uk, 0);
    for (const Vertex r : ws.packed) {
      const auto b = static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      load[b] += sub[static_cast<std::size_t>(r)];
      bin[static_cast<std::size_t>(r)] = static_cast<Vertex>(b);
    }
    return fits(*std::max_element(load.begin(), load.end()));
  };
  for (;;) {
    if (roots.empty()) return;
    if (fits(sub[static_cast<std::size_t>(roots.front())]) && pack()) break;
    std::pop_heap(roots.begin(), roots.end(), lighter);
    const auto top = static_cast<std::size_t>(roots.back());
    roots.pop_back();
    bin[top] = s_bin;
    ++s_columns;
    free_nnz -= ws.next[top];
    if (s_columns > cap || (lnz - free_nnz) * kMaxSeparatorNnzDivisor > lnz) {
      return;
    }
    for (Vertex c = first_child[top]; c != kInvalidVertex;
         c = next_sibling[static_cast<std::size_t>(c)]) {
      roots.push_back(c);
      std::push_heap(roots.begin(), roots.end(), lighter);
    }
  }

  // Every other column joins its parent's bin; S goes last. Relabel each
  // range in AMD order.
  std::vector<Index>& cursor = ws.bin_load;
  cursor.assign(uk + 1, 0);
  for (std::size_t j = un; j-- > 0;) {
    const Vertex p = parent[j];
    if (bin[j] != s_bin && p != kInvalidVertex &&
        bin[static_cast<std::size_t>(p)] != s_bin) {
      bin[j] = bin[static_cast<std::size_t>(p)];
    }
    ++cursor[static_cast<std::size_t>(bin[j])];
  }
  bin_begin_.assign(uk + 1, 0);
  for (std::size_t b = 0; b < uk; ++b) {
    bin_begin_[b + 1] = bin_begin_[b] + cursor[b];
  }
  for (std::size_t b = 0; b <= uk; ++b) cursor[b] = bin_begin_[b];
  for (std::size_t j = 0; j < un; ++j) {
    bin[j] = static_cast<Vertex>(cursor[static_cast<std::size_t>(bin[j])]++);
  }
}

void SparseCholesky::finish_bins(CholeskyWorkspace& ws) {
  const auto un = static_cast<std::size_t>(n_);
  const Index s_begin = bin_begin_.back();
  const auto us = static_cast<std::size_t>(n_ - s_begin);
  // One pass in AMD column order relabels each column's rows — etree
  // ancestors, appended in AMD order: its own bin's, then S's — records
  // where its S rows start, counts each S row's entries and lists the
  // columns that have S rows.
  bin_row_end_.resize(un);
  s_row_ptr_.assign(us + 1, 0);
  ws.s_sources.clear();
  for (std::size_t j = 0; j < un; ++j) {
    const auto q = static_cast<std::size_t>(ws.relabel[j]);
    const auto head = static_cast<std::size_t>(col_ptr_[q]);
    const auto tail = static_cast<std::size_t>(col_ptr_[q + 1]);
    rows_[head] = static_cast<Vertex>(q);
    std::size_t end = tail;
    for (std::size_t e = head + 1; e < tail; ++e) {
      const Vertex r = ws.relabel[static_cast<std::size_t>(rows_[e])];
      rows_[e] = r;
      if (r >= s_begin) {
        end = std::min(end, e);
        ++s_row_ptr_[static_cast<std::size_t>(r - s_begin) + 1];
      }
    }
    bin_row_end_[q] = static_cast<Index>(end);
    if (end < tail) ws.s_sources.push_back(static_cast<Vertex>(j));
  }
  for (std::size_t i = 0; i < us; ++i) s_row_ptr_[i + 1] += s_row_ptr_[i];

  // The S schedule: each S row's entries, its columns in AMD order.
  s_cols_.resize(static_cast<std::size_t>(s_row_ptr_[us]));
  s_values_.resize(s_cols_.size());
  std::vector<Index>& fill = ws.bin_load;
  fill.assign(s_row_ptr_.begin(), s_row_ptr_.end() - 1);
  for (const Vertex j : ws.s_sources) {
    const auto q =
        static_cast<std::size_t>(ws.relabel[static_cast<std::size_t>(j)]);
    for (Index e = bin_row_end_[q]; e < col_ptr_[q + 1]; ++e) {
      const auto ue = static_cast<std::size_t>(e);
      const auto slot = static_cast<std::size_t>(
          fill[static_cast<std::size_t>(rows_[ue] - s_begin)]++);
      s_cols_[slot] = static_cast<Vertex>(q);
      s_values_[slot] = values_[ue];
    }
  }
}

void SparseCholesky::clear_over_budget() {
  n_ = 0;
  outer_n_ = 0;
  pin_ = -1;
  outer_index_.clear();
  col_ptr_.assign(1, 0);
  rows_.clear();
  values_.clear();
  bin_begin_.assign({0, 0});
  bin_row_end_.clear();
  s_row_ptr_.assign(1, 0);
  s_cols_.clear();
  s_values_.clear();
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
  const Index bins = static_cast<Index>(bin_begin_.size()) - 1;
  const Index s_begin = bin_begin_.back();
  const bool pooled = bins > 1 && default_threads() > 1 &&
                      !ThreadPool::on_worker_thread() &&
                      global_pool().workers() > 1;
  if (pooled) obs::counter_add("solver.cholesky.split_solves", 1);
  const auto for_each_bin = [&](auto&& fn) {
    if (pooled) {
      parallel_for(0, bins, 0, fn);
    } else {
      for (Index bin = 0; bin < bins; ++bin) fn(bin);
    }
  };

  thread_local Vec work;
  work.resize(static_cast<std::size_t>(n_));
  double* y = work.data();
  const Index* col_ptr = col_ptr_.data();
  const Index* row_end =
      bin_row_end_.empty() ? col_ptr + 1 : bin_row_end_.data();
  const Vertex* rows = rows_.data();
  const double* values = values_.data();
  const Vertex* outer = outer_index_.data();

  // Gather through the folded grounding+permutation map, projecting onto
  // range(L) on the way in Laplacian mode (b + (−mean) matches
  // project_out_mean bit for bit).
  const double shift = laplacian_mode ? -mean(b) : 0.0;
  const auto gather = [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      const double bi = b[static_cast<std::size_t>(outer[i])];
      y[i] = laplacian_mode ? bi + shift : bi;
    }
  };

  for_each_bin([&](Index bin) {
    const Index lo = bin_begin_[static_cast<std::size_t>(bin)];
    const Index hi = bin_begin_[static_cast<std::size_t>(bin) + 1];
    gather(lo, hi);
    forward_sweep(col_ptr, row_end, rows, values, y, lo, hi);
  });
  // S: the rest of the forward sweep, row by row — each S row takes its
  // columns' updates in AMD order, as in the column sweep — then its
  // backward sweep.
  gather(s_begin, n_);
  for (Index q = s_begin; q < n_; ++q) {
    const auto i = static_cast<std::size_t>(q - s_begin);
    double yq = y[q];
    for (Index p = s_row_ptr_[i]; p < s_row_ptr_[i + 1]; ++p) {
      const auto up = static_cast<std::size_t>(p);
      yq -= s_values_[up] * y[s_cols_[up]];
    }
    y[q] = yq / values[col_ptr[q]];
  }
  backward_sweep(col_ptr, rows, values, y, s_begin, n_);
  for_each_bin([&](Index bin) {
    backward_sweep(col_ptr, rows, values, y,
                   bin_begin_[static_cast<std::size_t>(bin)],
                   bin_begin_[static_cast<std::size_t>(bin) + 1]);
  });

  // Scatter back on this thread, whose cache holds x (scattering from the
  // bins' threads measured slower); the grounded entry is 0 before
  // re-centering.
  if (laplacian_mode) x[static_cast<std::size_t>(pin_)] = 0.0;
  for (Index i = 0; i < n_; ++i) x[static_cast<std::size_t>(outer[i])] = y[i];
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
         outer_index_.size() * sizeof(Vertex) +
         bin_row_end_.size() * sizeof(Index) +
         s_row_ptr_.size() * sizeof(Index) +
         s_cols_.size() * sizeof(Vertex) + s_values_.size() * sizeof(double) +
         bin_begin_.size() * sizeof(Index);
}

}  // namespace ssp
