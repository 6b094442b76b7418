// NEON (AArch64) backend. Compiled when CMake defines
// SSP_KERNELS_HAVE_NEON; NEON is baseline on AArch64 so no runtime CPU
// check is needed.
//
// Two float64x2_t registers emulate the four canonical lanes
// (lo = {a0, a1}, hi = {a2, a3}); the combine adds lo + hi — producing
// {a0+a2, a1+a3} — then the two remaining lanes, exactly the
// (a0 + a2) + (a1 + a3) order of kernel_config.hpp. Tails run the same
// scalar code as the generic backend, no FMA (vfma is never emitted from
// intrinsics here and the build uses -ffp-contract=off).

#if defined(SSP_KERNELS_HAVE_NEON)

#include <arm_neon.h>

#include <cmath>

#include "la/kernels/kernels_detail.hpp"

namespace ssp::kernels::detail {

namespace {

/// (a0 + a2) + (a1 + a3).
inline double hsum(float64x2_t lo, float64x2_t hi) {
  const float64x2_t pair = vaddq_f64(lo, hi);  // {a0+a2, a1+a3}
  return vgetq_lane_f64(pair, 0) + vgetq_lane_f64(pair, 1);
}

inline double maxpd(double a, double b) { return a > b ? a : b; }

double n_dot(const double* x, const double* y, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    lo = vaddq_f64(lo, vmulq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
    hi = vaddq_f64(hi, vmulq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2)));
  }
  double s = hsum(lo, hi);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

double n_sum(const double* x, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    lo = vaddq_f64(lo, vld1q_f64(x + i));
    hi = vaddq_f64(hi, vld1q_f64(x + i + 2));
  }
  double s = hsum(lo, hi);
  for (; i < n; ++i) s += x[i];
  return s;
}

double n_nrm2sq(const double* x, std::size_t n) { return n_dot(x, x, n); }

double n_sq_dist(const double* x, const double* y, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const float64x2_t d0 = vsubq_f64(vld1q_f64(x + i), vld1q_f64(y + i));
    const float64x2_t d1 =
        vsubq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2));
    lo = vaddq_f64(lo, vmulq_f64(d0, d0));
    hi = vaddq_f64(hi, vmulq_f64(d1, d1));
  }
  double s = hsum(lo, hi);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    s += d * d;
  }
  return s;
}

double n_norm_inf(const double* x, std::size_t n) {
  // Scalar loop in the canonical lane order: NEON's vmaxq_f64 has
  // "NaN wins" semantics (either operand NaN → NaN), which differs from
  // MAXPD's "second operand wins" only for the (acc = NaN, new = finite)
  // case that cannot arise here (acc starts 0 and once NaN stays NaN
  // under both rules) — but we keep the scalar form to make the order
  // unmistakable; this kernel is never hot.
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

void n_axpy(double a, const double* x, double* y, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(a);
  std::size_t i = 0;
  const std::size_t n2 = n & ~std::size_t{1};
  for (; i < n2; i += 2) {
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void n_xpay(const double* x, double a, double* y, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(a);
  std::size_t i = 0;
  const std::size_t n2 = n & ~std::size_t{1};
  for (; i < n2; i += 2) {
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(x + i), vmulq_f64(va, vld1q_f64(y + i))));
  }
  for (; i < n; ++i) y[i] = x[i] + a * y[i];
}

void n_scal(double a, double* x, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(a);
  std::size_t i = 0;
  const std::size_t n2 = n & ~std::size_t{1};
  for (; i < n2; i += 2) vst1q_f64(x + i, vmulq_f64(vld1q_f64(x + i), va));
  for (; i < n; ++i) x[i] *= a;
}

void n_shift(double c, double* x, std::size_t n) {
  const float64x2_t vc = vdupq_n_f64(c);
  std::size_t i = 0;
  const std::size_t n2 = n & ~std::size_t{1};
  for (; i < n2; i += 2) vst1q_f64(x + i, vaddq_f64(vld1q_f64(x + i), vc));
  for (; i < n; ++i) x[i] += c;
}

void n_sub(const double* x, const double* y, double* z, std::size_t n) {
  std::size_t i = 0;
  const std::size_t n2 = n & ~std::size_t{1};
  for (; i < n2; i += 2) {
    vst1q_f64(z + i, vsubq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
  }
  for (; i < n; ++i) z[i] = x[i] - y[i];
}

void n_add(const double* x, const double* y, double* z, std::size_t n) {
  std::size_t i = 0;
  const std::size_t n2 = n & ~std::size_t{1};
  for (; i < n2; i += 2) {
    vst1q_f64(z + i, vaddq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
  }
  for (; i < n; ++i) z[i] = x[i] + y[i];
}

double n_axpy_sum(double a, const double* x, double* y, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(a);
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const float64x2_t y0 =
        vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i)));
    const float64x2_t y1 =
        vaddq_f64(vld1q_f64(y + i + 2), vmulq_f64(va, vld1q_f64(x + i + 2)));
    vst1q_f64(y + i, y0);
    vst1q_f64(y + i + 2, y1);
    lo = vaddq_f64(lo, y0);
    hi = vaddq_f64(hi, y1);
  }
  double s = hsum(lo, hi);
  for (; i < n; ++i) {
    y[i] += a * x[i];
    s += y[i];
  }
  return s;
}

double n_shift_nrm2sq(double c, double* x, std::size_t n) {
  const float64x2_t vc = vdupq_n_f64(c);
  float64x2_t lo = vdupq_n_f64(0.0), hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const float64x2_t x0 = vaddq_f64(vld1q_f64(x + i), vc);
    const float64x2_t x1 = vaddq_f64(vld1q_f64(x + i + 2), vc);
    vst1q_f64(x + i, x0);
    vst1q_f64(x + i + 2, x1);
    lo = vaddq_f64(lo, vmulq_f64(x0, x0));
    hi = vaddq_f64(hi, vmulq_f64(x1, x1));
  }
  double s = hsum(lo, hi);
  for (; i < n; ++i) {
    x[i] += c;
    s += x[i] * x[i];
  }
  return s;
}

/// 2-column float64x2_t block of the shared one-pass panel loop; an odd
/// last column rides along in a scalar accumulator in the same pass.
struct NeonLane {
  static constexpr int kWidth = 2;
  using Reg = float64x2_t;
  static Reg zero() { return vdupq_n_f64(0.0); }
  static Reg splat(double v) { return vdupq_n_f64(v); }
  static Reg load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, Reg v) { vst1q_f64(p, v); }
  static Reg add(Reg a, Reg b) { return vaddq_f64(a, b); }
  static Reg mul(Reg a, Reg b) { return vmulq_f64(a, b); }
};

void n_col_sums(const double* p, Index n, Index r, double* out) {
  const auto rs = static_cast<std::size_t>(r);
  const Index n4 = n & ~Index{3};
  const Index r2 = r & ~Index{1};
  Index j = 0;
  for (; j < r2; j += 2) {
    float64x2_t a0 = vdupq_n_f64(0.0), a1 = vdupq_n_f64(0.0);
    float64x2_t a2 = vdupq_n_f64(0.0), a3 = vdupq_n_f64(0.0);
    Index v = 0;
    for (; v < n4; v += 4) {
      const double* base =
          p + static_cast<std::size_t>(v) * rs + static_cast<std::size_t>(j);
      a0 = vaddq_f64(a0, vld1q_f64(base));
      a1 = vaddq_f64(a1, vld1q_f64(base + rs));
      a2 = vaddq_f64(a2, vld1q_f64(base + 2 * rs));
      a3 = vaddq_f64(a3, vld1q_f64(base + 3 * rs));
    }
    float64x2_t s = vaddq_f64(vaddq_f64(a0, a2), vaddq_f64(a1, a3));
    for (; v < n; ++v) {
      s = vaddq_f64(s, vld1q_f64(p + static_cast<std::size_t>(v) * rs +
                                 static_cast<std::size_t>(j)));
    }
    vst1q_f64(out + j, s);
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

void n_add_row_bias(double* p, Index n, Index r, const double* c) {
  const auto rs = static_cast<std::size_t>(r);
  const Index r2 = r & ~Index{1};
  for (Index v = 0; v < n; ++v) {
    double* row = p + static_cast<std::size_t>(v) * rs;
    Index j = 0;
    for (; j < r2; j += 2) {
      vst1q_f64(row + j, vaddq_f64(vld1q_f64(row + j), vld1q_f64(c + j)));
    }
    for (; j < r; ++j) row[j] += c[j];
  }
}

void n_sub_row_bias(const double* b, const double* c, double* f, Index n,
                    Index r) {
  const auto rs = static_cast<std::size_t>(r);
  const Index r2 = r & ~Index{1};
  for (Index v = 0; v < n; ++v) {
    const double* brow = b + static_cast<std::size_t>(v) * rs;
    double* frow = f + static_cast<std::size_t>(v) * rs;
    Index j = 0;
    for (; j < r2; j += 2) {
      vst1q_f64(frow + j, vsubq_f64(vld1q_f64(brow + j), vld1q_f64(c + j)));
    }
    for (; j < r; ++j) frow[j] = brow[j] - c[j];
  }
}

void n_tree_accumulate(const Vertex* order, const Vertex* parent, Index n,
                       double* f, Index r) {
  const auto rs = static_cast<std::size_t>(r);
  const Index r2 = r & ~Index{1};
  for (Index i = n; i-- > 1;) {
    const Vertex v = order[i];
    const Vertex pa = parent[v];
    double* fp = f + static_cast<std::size_t>(pa) * rs;
    const double* fv = f + static_cast<std::size_t>(v) * rs;
    Index j = 0;
    for (; j < r2; j += 2) {
      vst1q_f64(fp + j, vaddq_f64(vld1q_f64(fp + j), vld1q_f64(fv + j)));
    }
    for (; j < r; ++j) fp[j] += fv[j];
  }
}

void n_tree_integrate(const Vertex* order, const Vertex* parent,
                      const double* parent_weight, Index n, const double* f,
                      double* x, Index r) {
  const auto rs = static_cast<std::size_t>(r);
  const Index r2 = r & ~Index{1};
  double* xroot = x + static_cast<std::size_t>(order[0]) * rs;
  for (Index j = 0; j < r; ++j) xroot[j] = 0.0;
  for (Index i = 1; i < n; ++i) {
    const Vertex v = order[i];
    const Vertex pa = parent[v];
    const float64x2_t vw = vdupq_n_f64(parent_weight[v]);
    const double w = parent_weight[v];
    const double* xp = x + static_cast<std::size_t>(pa) * rs;
    const double* fv = f + static_cast<std::size_t>(v) * rs;
    double* xv = x + static_cast<std::size_t>(v) * rs;
    Index j = 0;
    for (; j < r2; j += 2) {
      vst1q_f64(xv + j, vaddq_f64(vld1q_f64(xp + j),
                                  vdivq_f64(vld1q_f64(fv + j), vw)));
    }
    for (; j < r; ++j) xv[j] = xp[j] + fv[j] / w;
  }
}

const Ops kNeonOps = {
    .dot = n_dot,
    .sum = n_sum,
    .nrm2sq = n_nrm2sq,
    .sq_dist = n_sq_dist,
    .norm_inf = n_norm_inf,
    .axpy = n_axpy,
    .xpay = n_xpay,
    .scal = n_scal,
    .shift = n_shift,
    .sub = n_sub,
    .add = n_add,
    .axpy_sum = n_axpy_sum,
    .shift_nrm2sq = n_shift_nrm2sq,
    .spmv_rows = generic_spmv_rows,
    .spmv_panel = spmv_panel_rows<NeonLane>,
    .col_sums = n_col_sums,
    .add_row_bias = n_add_row_bias,
    .sub_row_bias = n_sub_row_bias,
    .tree_accumulate = n_tree_accumulate,
    .tree_integrate = n_tree_integrate,
};

}  // namespace

const Ops& neon_ops() { return kNeonOps; }

}  // namespace ssp::kernels::detail

#endif  // SSP_KERNELS_HAVE_NEON
