#pragma once

/// \file kernels_detail.hpp
/// Internal cross-backend plumbing for src/la/kernels/. Not part of the
/// public API — include kernels.hpp instead.

#include <cstddef>

#include "la/kernels/kernels.hpp"

namespace ssp::kernels::detail {

/// The always-compiled scalar reference table.
extern const Ops kGenericOps;

/// Kernels whose canonical order is the plain sequential loop share the
/// generic implementation across backends (declared here so the SIMD
/// tables can point at them).
void generic_spmv_rows(Index row_begin, Index row_end, const Index* row_ptr,
                       const Vertex* cols, const double* vals, const double* x,
                       double* y);

/// The one-pass `spmv_panel` row loop every backend instantiates with its
/// own column block `L` (a TU-local type, so instantiations never collide
/// across the differently compiled backend TUs):
///
///   L::kWidth           columns per register (1 for the scalar reference);
///   L::Reg              one register of kWidth column accumulators;
///   L::zero/splat/load/store/add/mul  the lane-wise primitives.
///
/// Each row's nonzeros are read once for all r columns: NV registers cover
/// the first NV·kWidth columns and T scalar accumulators the tail
/// (r mod kWidth), all advancing together in sequential k order. Per
/// column that is the single-RHS `s += vals[k]·x[cols[k]]` sequence, so
/// every backend and every r stays bit-identical to spmv_rows.
template <class L, int NV, int T>
void spmv_panel_fixed(Index row_begin, Index row_end, const Index* row_ptr,
                      const Vertex* cols, const double* vals, const double* x,
                      double* y) {
  constexpr std::size_t rs = static_cast<std::size_t>(NV * L::kWidth + T);
  for (Index row = row_begin; row < row_end; ++row) {
    typename L::Reg acc[NV > 0 ? NV : 1];
    double tail[T > 0 ? T : 1];
    for (int i = 0; i < NV; ++i) acc[i] = L::zero();
    for (int t = 0; t < T; ++t) tail[t] = 0.0;
    for (Index k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      const double v = vals[k];
      const double* xr = x + static_cast<std::size_t>(cols[k]) * rs;
      const typename L::Reg vv = L::splat(v);
      for (int i = 0; i < NV; ++i) {
        acc[i] = L::add(acc[i], L::mul(vv, L::load(xr + i * L::kWidth)));
      }
      for (int t = 0; t < T; ++t) tail[t] += v * xr[NV * L::kWidth + t];
    }
    double* yr = y + static_cast<std::size_t>(row) * rs;
    for (int i = 0; i < NV; ++i) L::store(yr + i * L::kWidth, acc[i]);
    for (int t = 0; t < T; ++t) yr[NV * L::kWidth + t] = tail[t];
  }
}

/// Any-width form: the output row itself holds the accumulators, still one
/// pass over the row's nonzeros in sequential k order per column.
template <class L>
void spmv_panel_wide(Index row_begin, Index row_end, const Index* row_ptr,
                     const Vertex* cols, const double* vals, const double* x,
                     double* y, Index r) {
  const auto rs = static_cast<std::size_t>(r);
  const std::size_t rv = rs - rs % L::kWidth;
  for (Index row = row_begin; row < row_end; ++row) {
    double* yr = y + static_cast<std::size_t>(row) * rs;
    for (std::size_t j = 0; j < rs; ++j) yr[j] = 0.0;
    for (Index k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      const double v = vals[k];
      const double* xr = x + static_cast<std::size_t>(cols[k]) * rs;
      const typename L::Reg vv = L::splat(v);
      std::size_t j = 0;
      for (; j < rv; j += L::kWidth) {
        L::store(yr + j, L::add(L::load(yr + j), L::mul(vv, L::load(xr + j))));
      }
      for (; j < rs; ++j) yr[j] += v * xr[j];
    }
  }
}

template <class L, int R>
void spmv_panel_r(Index row_begin, Index row_end, const Index* row_ptr,
                  const Vertex* cols, const double* vals, const double* x,
                  double* y) {
  spmv_panel_fixed<L, R / L::kWidth, R % L::kWidth>(row_begin, row_end,
                                                     row_ptr, cols, vals, x, y);
}

/// The `spmv_panel` entry of each backend's table: register accumulators
/// for r <= 8 (the power step's r = 2, and the embedding's default
/// r = max(6, ⌈log₂ n / 2⌉) up to n = 2¹⁶), row-held accumulators beyond.
template <class L>
void spmv_panel_rows(Index row_begin, Index row_end, const Index* row_ptr,
                     const Vertex* cols, const double* vals, const double* x,
                     double* y, Index r) {
  switch (r) {
    case 1: return spmv_panel_r<L, 1>(row_begin, row_end, row_ptr, cols, vals, x, y);
    case 2: return spmv_panel_r<L, 2>(row_begin, row_end, row_ptr, cols, vals, x, y);
    case 3: return spmv_panel_r<L, 3>(row_begin, row_end, row_ptr, cols, vals, x, y);
    case 4: return spmv_panel_r<L, 4>(row_begin, row_end, row_ptr, cols, vals, x, y);
    case 5: return spmv_panel_r<L, 5>(row_begin, row_end, row_ptr, cols, vals, x, y);
    case 6: return spmv_panel_r<L, 6>(row_begin, row_end, row_ptr, cols, vals, x, y);
    case 7: return spmv_panel_r<L, 7>(row_begin, row_end, row_ptr, cols, vals, x, y);
    case 8: return spmv_panel_r<L, 8>(row_begin, row_end, row_ptr, cols, vals, x, y);
    default:
      return spmv_panel_wide<L>(row_begin, row_end, row_ptr, cols, vals, x, y, r);
  }
}

#if defined(SSP_KERNELS_HAVE_AVX2)
/// Defined in kernels_avx2.cpp (compiled with -mavx2).
const Ops& avx2_ops();
#endif
#if defined(SSP_KERNELS_HAVE_NEON)
/// Defined in kernels_neon.cpp.
const Ops& neon_ops();
#endif

}  // namespace ssp::kernels::detail
