// AVX2 backend. Compiled only when CMake defines SSP_KERNELS_HAVE_AVX2
// (this TU gets -mavx2); selected at runtime only on CPUs reporting AVX2.
//
// Every kernel is a direct transliteration of kernels_generic.cpp into
// 256-bit intrinsics: one __m256d accumulator IS the four lane-blocked
// scalar accumulators, the horizontal sum adds the low and high 128-bit
// halves first — (a0 + a2) + (a1 + a3) — and tails run the same scalar
// code after the combine. No FMA anywhere (the scalar reference builds
// with -ffp-contract=off); multiplies and adds stay separate so both
// backends round identically.

#if defined(SSP_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>

#include "la/kernels/kernels_detail.hpp"

namespace ssp::kernels::detail {

namespace {

/// (a0 + a2) + (a1 + a3): low half + high half, then the two lanes.
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {a0+a2, a1+a3}
  const __m128d high = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, high));
}

/// Clears the sign bit — bitwise identical to std::abs, including on NaN.
inline __m256d vabs(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

inline double maxpd(double a, double b) { return a > b ? a : b; }

double v_dot(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  double s = hsum(acc);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

double v_sum(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  double s = hsum(acc);
  for (; i < n; ++i) s += x[i];
  return s;
}

double v_nrm2sq(const double* x, std::size_t n) { return v_dot(x, x, n); }

double v_sq_dist(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double s = hsum(acc);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    s += d * d;
  }
  return s;
}

double v_norm_inf(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    // VMAXPD(acc, v) = acc > v ? acc : v per lane — the scalar maxpd.
    acc = _mm256_max_pd(acc, vabs(_mm256_loadu_pd(x + i)));
  }
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_max_pd(lo, hi);  // {maxpd(a0,a2), maxpd(a1,a3)}
  const __m128d high = _mm_unpackhi_pd(pair, pair);
  double m = _mm_cvtsd_f64(_mm_max_sd(pair, high));
  for (; i < n; ++i) m = maxpd(m, std::abs(x[i]));
  return m;
}

void v_axpy(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const __m256d vy = _mm256_add_pd(
        _mm256_loadu_pd(y + i), _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, vy);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void v_xpay(const double* x, double a, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const __m256d vy = _mm256_add_pd(
        _mm256_loadu_pd(x + i), _mm256_mul_pd(va, _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(y + i, vy);
  }
  for (; i < n; ++i) y[i] = x[i] + a * y[i];
}

void v_scal(double a, double* x, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= a;
}

void v_shift(double c, double* x, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_add_pd(_mm256_loadu_pd(x + i), vc));
  }
  for (; i < n; ++i) x[i] += c;
}

void v_sub(const double* x, const double* y, double* z, std::size_t n) {
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    _mm256_storeu_pd(
        z + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) z[i] = x[i] - y[i];
}

void v_add(const double* x, const double* y, double* z, std::size_t n) {
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    _mm256_storeu_pd(
        z + i, _mm256_add_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) z[i] = x[i] + y[i];
}

double v_axpy_sum(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const __m256d vy = _mm256_add_pd(
        _mm256_loadu_pd(y + i), _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, vy);
    acc = _mm256_add_pd(acc, vy);
  }
  double s = hsum(acc);
  for (; i < n; ++i) {
    y[i] += a * x[i];
    s += y[i];
  }
  return s;
}

double v_shift_nrm2sq(double c, double* x, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const __m256d vx = _mm256_add_pd(_mm256_loadu_pd(x + i), vc);
    _mm256_storeu_pd(x + i, vx);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vx, vx));
  }
  double s = hsum(acc);
  for (; i < n; ++i) {
    x[i] += c;
    s += x[i] * x[i];
  }
  return s;
}

/// 4-column __m256d block of the shared one-pass panel loop; the r mod 4
/// tail columns ride along in scalar accumulators in the same pass.
struct Avx2Lane {
  static constexpr int kWidth = 4;
  using Reg = __m256d;
  static Reg zero() { return _mm256_setzero_pd(); }
  static Reg splat(double v) { return _mm256_set1_pd(v); }
  static Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm256_storeu_pd(p, v); }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
};

void v_col_sums(const double* p, Index n, Index r, double* out) {
  const auto rs = static_cast<std::size_t>(r);
  const Index n4 = n & ~Index{3};
  const Index r4 = r & ~Index{3};
  Index j = 0;
  for (; j < r4; j += 4) {
    // Four row-lane accumulators per column block, mirroring the scalar
    // a0..a3 — each vector holds one lane's partials for 4 columns.
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    Index v = 0;
    for (; v < n4; v += 4) {
      const double* base = p + static_cast<std::size_t>(v) * rs +
                           static_cast<std::size_t>(j);
      a0 = _mm256_add_pd(a0, _mm256_loadu_pd(base));
      a1 = _mm256_add_pd(a1, _mm256_loadu_pd(base + rs));
      a2 = _mm256_add_pd(a2, _mm256_loadu_pd(base + 2 * rs));
      a3 = _mm256_add_pd(a3, _mm256_loadu_pd(base + 3 * rs));
    }
    __m256d s =
        _mm256_add_pd(_mm256_add_pd(a0, a2), _mm256_add_pd(a1, a3));
    for (; v < n; ++v) {
      s = _mm256_add_pd(s, _mm256_loadu_pd(p + static_cast<std::size_t>(v) * rs +
                                           static_cast<std::size_t>(j)));
    }
    _mm256_storeu_pd(out + j, s);
  }
  for (; j < r; ++j) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    Index v = 0;
    for (; v < n4; v += 4) {
      const double* base =
          p + static_cast<std::size_t>(v) * rs + static_cast<std::size_t>(j);
      a0 += base[0];
      a1 += base[rs];
      a2 += base[2 * rs];
      a3 += base[3 * rs];
    }
    double s = (a0 + a2) + (a1 + a3);
    for (; v < n; ++v) {
      s += p[static_cast<std::size_t>(v) * rs + static_cast<std::size_t>(j)];
    }
    out[j] = s;
  }
}

void v_add_row_bias(double* p, Index n, Index r, const double* c) {
  const auto rs = static_cast<std::size_t>(r);
  const Index r4 = r & ~Index{3};
  for (Index v = 0; v < n; ++v) {
    double* row = p + static_cast<std::size_t>(v) * rs;
    Index j = 0;
    for (; j < r4; j += 4) {
      _mm256_storeu_pd(
          row + j, _mm256_add_pd(_mm256_loadu_pd(row + j),
                                 _mm256_loadu_pd(c + j)));
    }
    for (; j < r; ++j) row[j] += c[j];
  }
}

void v_sub_row_bias(const double* b, const double* c, double* f, Index n,
                    Index r) {
  const auto rs = static_cast<std::size_t>(r);
  const Index r4 = r & ~Index{3};
  for (Index v = 0; v < n; ++v) {
    const double* brow = b + static_cast<std::size_t>(v) * rs;
    double* frow = f + static_cast<std::size_t>(v) * rs;
    Index j = 0;
    for (; j < r4; j += 4) {
      _mm256_storeu_pd(
          frow + j, _mm256_sub_pd(_mm256_loadu_pd(brow + j),
                                  _mm256_loadu_pd(c + j)));
    }
    for (; j < r; ++j) frow[j] = brow[j] - c[j];
  }
}

void v_tree_accumulate(const Vertex* order, const Vertex* parent, Index n,
                       double* f, Index r) {
  const auto rs = static_cast<std::size_t>(r);
  const Index r4 = r & ~Index{3};
  for (Index i = n; i-- > 1;) {
    const Vertex v = order[i];
    const Vertex pa = parent[v];
    double* fp = f + static_cast<std::size_t>(pa) * rs;
    const double* fv = f + static_cast<std::size_t>(v) * rs;
    Index j = 0;
    for (; j < r4; j += 4) {
      _mm256_storeu_pd(
          fp + j, _mm256_add_pd(_mm256_loadu_pd(fp + j),
                                _mm256_loadu_pd(fv + j)));
    }
    for (; j < r; ++j) fp[j] += fv[j];
  }
}

void v_tree_integrate(const Vertex* order, const Vertex* parent,
                      const double* parent_weight, Index n, const double* f,
                      double* x, Index r) {
  const auto rs = static_cast<std::size_t>(r);
  const Index r4 = r & ~Index{3};
  double* xroot = x + static_cast<std::size_t>(order[0]) * rs;
  for (Index j = 0; j < r; ++j) xroot[j] = 0.0;
  for (Index i = 1; i < n; ++i) {
    const Vertex v = order[i];
    const Vertex pa = parent[v];
    const __m256d vw = _mm256_set1_pd(parent_weight[v]);
    const double w = parent_weight[v];
    const double* xp = x + static_cast<std::size_t>(pa) * rs;
    const double* fv = f + static_cast<std::size_t>(v) * rs;
    double* xv = x + static_cast<std::size_t>(v) * rs;
    Index j = 0;
    for (; j < r4; j += 4) {
      _mm256_storeu_pd(
          xv + j, _mm256_add_pd(_mm256_loadu_pd(xp + j),
                                _mm256_div_pd(_mm256_loadu_pd(fv + j), vw)));
    }
    for (; j < r; ++j) xv[j] = xp[j] + fv[j] / w;
  }
}

const Ops kAvx2Ops = {
    .dot = v_dot,
    .sum = v_sum,
    .nrm2sq = v_nrm2sq,
    .sq_dist = v_sq_dist,
    .norm_inf = v_norm_inf,
    .axpy = v_axpy,
    .xpay = v_xpay,
    .scal = v_scal,
    .shift = v_shift,
    .sub = v_sub,
    .add = v_add,
    .axpy_sum = v_axpy_sum,
    .shift_nrm2sq = v_shift_nrm2sq,
    // Single-RHS SpMV is canonically the sequential per-row loop (short
    // Laplacian rows — gathers lose); the vectorized form is spmv_panel.
    .spmv_rows = generic_spmv_rows,
    .spmv_panel = spmv_panel_rows<Avx2Lane>,
    .col_sums = v_col_sums,
    .add_row_bias = v_add_row_bias,
    .sub_row_bias = v_sub_row_bias,
    .tree_accumulate = v_tree_accumulate,
    .tree_integrate = v_tree_integrate,
};

}  // namespace

const Ops& avx2_ops() { return kAvx2Ops; }

}  // namespace ssp::kernels::detail

#endif  // SSP_KERNELS_HAVE_AVX2
