// Generic scalar backend — the reference semantics of the kernel layer.
//
// Every loop here spells out the canonical arithmetic order documented in
// kernel_config.hpp: reductions run kLanes (= 4) interleaved accumulators
// (accumulator l sums indices ≡ l mod 4), combine them as
// (a0 + a2) + (a1 + a3) — the 256-bit horizontal-sum order — and append
// the tail sequentially. The SIMD backends must reproduce these results
// bit for bit; keep the two in lockstep when changing either.
//
// The build compiles this translation unit (like the whole library) with
// -ffp-contract=off, so none of the a*b+c patterns below may be fused
// into FMAs the vector backends do not use.

#include <cmath>

#include "la/kernels/kernels_detail.hpp"

namespace ssp::kernels::detail {

namespace {

double g_dot(const double* x, const double* y, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  double s = (a0 + a2) + (a1 + a3);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

double g_sum(const double* x, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    a0 += x[i];
    a1 += x[i + 1];
    a2 += x[i + 2];
    a3 += x[i + 3];
  }
  double s = (a0 + a2) + (a1 + a3);
  for (; i < n; ++i) s += x[i];
  return s;
}

double g_nrm2sq(const double* x, std::size_t n) { return g_dot(x, x, n); }

double g_sq_dist(const double* x, const double* y, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  double s = (a0 + a2) + (a1 + a3);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    s += d * d;
  }
  return s;
}

/// MAXPD lane semantics: unordered compares take the new element, so NaN
/// inputs surface as NaN instead of being silently skipped.
inline double maxpd(double a, double b) { return a > b ? a : b; }

double g_norm_inf(const double* x, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    a0 = maxpd(a0, std::abs(x[i]));
    a1 = maxpd(a1, std::abs(x[i + 1]));
    a2 = maxpd(a2, std::abs(x[i + 2]));
    a3 = maxpd(a3, std::abs(x[i + 3]));
  }
  double m = maxpd(maxpd(a0, a2), maxpd(a1, a3));
  for (; i < n; ++i) m = maxpd(m, std::abs(x[i]));
  return m;
}

void g_axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void g_xpay(const double* x, double a, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] + a * y[i];
}

void g_scal(double a, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= a;
}

void g_shift(double c, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] += c;
}

void g_sub(const double* x, const double* y, double* z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = x[i] - y[i];
}

void g_add(const double* x, const double* y, double* z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = x[i] + y[i];
}

double g_axpy_sum(double a, const double* x, double* y, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    y[i] += a * x[i];
    y[i + 1] += a * x[i + 1];
    y[i + 2] += a * x[i + 2];
    y[i + 3] += a * x[i + 3];
    a0 += y[i];
    a1 += y[i + 1];
    a2 += y[i + 2];
    a3 += y[i + 3];
  }
  double s = (a0 + a2) + (a1 + a3);
  for (; i < n; ++i) {
    y[i] += a * x[i];
    s += y[i];
  }
  return s;
}

double g_shift_nrm2sq(double c, double* x, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    x[i] += c;
    x[i + 1] += c;
    x[i + 2] += c;
    x[i + 3] += c;
    a0 += x[i] * x[i];
    a1 += x[i + 1] * x[i + 1];
    a2 += x[i + 2] * x[i + 2];
    a3 += x[i + 3] * x[i + 3];
  }
  double s = (a0 + a2) + (a1 + a3);
  for (; i < n; ++i) {
    x[i] += c;
    s += x[i] * x[i];
  }
  return s;
}

/// The scalar column block of the shared one-pass panel loop.
struct ScalarLane {
  static constexpr int kWidth = 1;
  using Reg = double;
  static Reg zero() { return 0.0; }
  static Reg splat(double v) { return v; }
  static Reg load(const double* p) { return *p; }
  static void store(double* p, Reg v) { *p = v; }
  static Reg add(Reg a, Reg b) { return a + b; }
  static Reg mul(Reg a, Reg b) { return a * b; }
};

void g_col_sums(const double* p, Index n, Index r, double* out) {
  // Per column: the canonical lane-blocked order over rows (matches sum()
  // on a contiguous copy of the column). Row-lane accumulators live in
  // `out` plus a small stack block per column chunk.
  const auto rs = static_cast<std::size_t>(r);
  for (Index j = 0; j < r; ++j) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    Index v = 0;
    const Index n4 = n & ~Index{3};
    for (; v < n4; v += 4) {
      a0 += p[static_cast<std::size_t>(v) * rs + static_cast<std::size_t>(j)];
      a1 += p[static_cast<std::size_t>(v + 1) * rs + static_cast<std::size_t>(j)];
      a2 += p[static_cast<std::size_t>(v + 2) * rs + static_cast<std::size_t>(j)];
      a3 += p[static_cast<std::size_t>(v + 3) * rs + static_cast<std::size_t>(j)];
    }
    double s = (a0 + a2) + (a1 + a3);
    for (; v < n; ++v) {
      s += p[static_cast<std::size_t>(v) * rs + static_cast<std::size_t>(j)];
    }
    out[j] = s;
  }
}

void g_add_row_bias(double* p, Index n, Index r, const double* c) {
  for (Index v = 0; v < n; ++v) {
    double* row = p + static_cast<std::size_t>(v) * static_cast<std::size_t>(r);
    for (Index j = 0; j < r; ++j) row[j] += c[j];
  }
}

void g_sub_row_bias(const double* b, const double* c, double* f, Index n,
                    Index r) {
  for (Index v = 0; v < n; ++v) {
    const double* brow =
        b + static_cast<std::size_t>(v) * static_cast<std::size_t>(r);
    double* frow = f + static_cast<std::size_t>(v) * static_cast<std::size_t>(r);
    for (Index j = 0; j < r; ++j) frow[j] = brow[j] - c[j];
  }
}

void g_tree_accumulate(const Vertex* order, const Vertex* parent, Index n,
                       double* f, Index r) {
  const auto rs = static_cast<std::size_t>(r);
  for (Index i = n; i-- > 1;) {
    const Vertex v = order[i];
    const Vertex pa = parent[v];
    double* fp = f + static_cast<std::size_t>(pa) * rs;
    const double* fv = f + static_cast<std::size_t>(v) * rs;
    for (Index j = 0; j < r; ++j) fp[j] += fv[j];
  }
}

void g_tree_integrate(const Vertex* order, const Vertex* parent,
                      const double* parent_weight, Index n, const double* f,
                      double* x, Index r) {
  const auto rs = static_cast<std::size_t>(r);
  double* xroot = x + static_cast<std::size_t>(order[0]) * rs;
  for (Index j = 0; j < r; ++j) xroot[j] = 0.0;
  for (Index i = 1; i < n; ++i) {
    const Vertex v = order[i];
    const Vertex pa = parent[v];
    const double w = parent_weight[v];
    const double* xp = x + static_cast<std::size_t>(pa) * rs;
    const double* fv = f + static_cast<std::size_t>(v) * rs;
    double* xv = x + static_cast<std::size_t>(v) * rs;
    for (Index j = 0; j < r; ++j) xv[j] = xp[j] + fv[j] / w;
  }
}

}  // namespace

void generic_spmv_rows(Index row_begin, Index row_end, const Index* row_ptr,
                       const Vertex* cols, const double* vals, const double* x,
                       double* y) {
  for (Index row = row_begin; row < row_end; ++row) {
    const Index b = row_ptr[row];
    const Index e = row_ptr[row + 1];
    double s = 0.0;
    for (Index k = b; k < e; ++k) {
      s += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    y[row] = s;
  }
}

const Ops kGenericOps = {
    .dot = g_dot,
    .sum = g_sum,
    .nrm2sq = g_nrm2sq,
    .sq_dist = g_sq_dist,
    .norm_inf = g_norm_inf,
    .axpy = g_axpy,
    .xpay = g_xpay,
    .scal = g_scal,
    .shift = g_shift,
    .sub = g_sub,
    .add = g_add,
    .axpy_sum = g_axpy_sum,
    .shift_nrm2sq = g_shift_nrm2sq,
    .spmv_rows = generic_spmv_rows,
    .spmv_panel = spmv_panel_rows<ScalarLane>,
    .col_sums = g_col_sums,
    .add_row_bias = g_add_row_bias,
    .sub_row_bias = g_sub_row_bias,
    .tree_accumulate = g_tree_accumulate,
    .tree_integrate = g_tree_integrate,
};

}  // namespace ssp::kernels::detail
