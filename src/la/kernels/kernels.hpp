#pragma once

/// \file kernels.hpp
/// Dispatchable SIMD/cache-blocked numeric kernels — the single home of
/// every dense inner primitive the pipeline bottoms out in (H2Pack-style:
/// hand-vectorized kernels behind a config header, selected at runtime).
///
/// All higher layers (la/vector_ops, la/csr_matrix, tree/tree_solver,
/// solver/pcg, core/embedding) route their inner loops through the
/// `Ops` table returned by `ops()`, so there is exactly one definition of
/// each primitive per backend and the backend can be swapped per process
/// (`SSP_KERNEL_BACKEND`) or per scope (`ScopedBackend`, for parity tests
/// and benches).
///
/// Determinism: reductions use the canonical lane-blocked order defined
/// in kernel_config.hpp; every backend produces bit-identical results
/// (enforced by tests/test_kernels.cpp and the `kernel_parity` ctest).
///
/// Conventions:
///  * Vector kernels take raw pointers + `std::size_t n`; the caller
///    validates sizes (la/vector_ops.hpp keeps the checked span forms).
///  * In-place aliasing is allowed wherever an output element depends
///    only on the same-index input elements (`sub(x, y, x)`,
///    `axpy(a, x, x)`, `dot(x, x)`); fully or partially *shifted* overlap
///    is not.
///  * Panels are row-major n×r (row = vertex, the r RHS columns of one
///    vertex contiguous); SIMD backends vectorize across the r columns,
///    which leaves each column's reduction order equal to the single-RHS
///    kernel's.

#include <cstddef>
#include <span>
#include <string>

#include "la/kernels/kernel_config.hpp"
#include "util/types.hpp"

namespace ssp::kernels {

enum class Backend { kGeneric = 0, kAvx2 = 1, kNeon = 2 };

/// "generic" | "avx2" | "neon".
[[nodiscard]] const char* backend_name(Backend b);

/// True when the backend's implementation is compiled into this binary.
[[nodiscard]] bool backend_compiled(Backend b);

/// True when the backend is compiled AND the running CPU supports it.
[[nodiscard]] bool backend_supported(Backend b);

/// The backend whose table `ops()` currently returns. Resolved on first
/// use from `SSP_KERNEL_BACKEND` (auto|generic|avx2|neon; unknown or
/// unavailable values throw std::runtime_error — CI pins must fail
/// loudly, never fall back).
[[nodiscard]] Backend active_backend();

/// Forces the active backend (tests/benches). Throws std::runtime_error
/// when `b` is not compiled/supported. Not thread-safe against concurrent
/// kernel calls — switch only between pipeline runs.
void set_backend(Backend b);

/// RAII backend override restoring the previous backend on destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : previous_(active_backend()) {
    set_backend(b);
  }
  ~ScopedBackend() { set_backend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  Backend previous_;
};

/// One backend's implementation of every kernel. Reduction-order and
/// aliasing contracts are documented per entry; all three backends must
/// agree bit for bit.
struct Ops {
  // ---- Vector reductions (canonical lane-blocked order) ----

  /// Σ x[i]·y[i].
  double (*dot)(const double* x, const double* y, std::size_t n);
  /// Σ x[i].
  double (*sum)(const double* x, std::size_t n);
  /// Σ x[i]² — bit-identical to dot(x, x, n).
  double (*nrm2sq)(const double* x, std::size_t n);
  /// Σ (x[i] − y[i])² (fused subtract + squared norm).
  double (*sq_dist)(const double* x, const double* y, std::size_t n);
  /// max |x[i]| with MAXPD semantics per lane: an unordered compare takes
  /// the new element, so a NaN input yields NaN.
  double (*norm_inf)(const double* x, std::size_t n);

  // ---- Elementwise vector updates ----

  /// y[i] += a·x[i].
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
  /// y[i] := x[i] + a·y[i] (the PCG direction update p = z + β p).
  void (*xpay)(const double* x, double a, double* y, std::size_t n);
  /// x[i] *= a.
  void (*scal)(double a, double* x, std::size_t n);
  /// x[i] += c.
  void (*shift)(double c, double* x, std::size_t n);
  /// z[i] := x[i] − y[i]; z may alias x or y.
  void (*sub)(const double* x, const double* y, double* z, std::size_t n);
  /// z[i] := x[i] + y[i]; z may alias x or y.
  void (*add)(const double* x, const double* y, double* z, std::size_t n);

  // ---- Fused update+reduction (PCG inner loop) ----

  /// y[i] += a·x[i], returning Σ y[i] (lane-blocked, bit-identical to
  /// axpy followed by sum) — the projected-residual update of PCG.
  double (*axpy_sum)(double a, const double* x, double* y, std::size_t n);
  /// x[i] += c, returning Σ x[i]² (lane-blocked, bit-identical to shift
  /// followed by nrm2sq) — mean-projection fused with the residual norm.
  double (*shift_nrm2sq)(double c, double* x, std::size_t n);

  // ---- Sparse matrix × vector ----

  /// y[row] := Σ_k vals[k]·x[cols[k]] for rows in [row_begin, row_end).
  /// The per-row accumulation is SEQUENTIAL in k (not lane-blocked): with
  /// the short rows of graph Laplacians (~6 nnz) per-row lane-blocking
  /// and gathers lose to the scalar loop, so the canonical single-RHS
  /// SpMV order is the plain sequential one in every backend. The
  /// vectorized form is `spmv_panel`, which keeps the same per-column
  /// k-order and vectorizes across RHS columns instead.
  void (*spmv_rows)(Index row_begin, Index row_end, const Index* row_ptr,
                    const Vertex* cols, const double* vals, const double* x,
                    double* y);

  // ---- Panel (multi-RHS) kernels: row-major n×r, SIMD across columns ----

  /// Y[row][j] := Σ_k vals[k]·X[cols[k]][j], rows in [row_begin, row_end),
  /// j in [0, r). One pass over each row serves all r columns: the row's
  /// col/val entries are read once, with the SIMD column blocks and the
  /// r mod width tail columns accumulating side by side. Per (row, j) the
  /// k-order is sequential — column j is bit-identical to spmv_rows
  /// applied to X's j-th column, in every backend and for every r.
  void (*spmv_panel)(Index row_begin, Index row_end, const Index* row_ptr,
                     const Vertex* cols, const double* vals, const double* x,
                     double* y, Index r);
  /// out[j] := Σ_v P[v][j] in the canonical lane-blocked order over v —
  /// column j is bit-identical to sum() of that column.
  void (*col_sums)(const double* p, Index n, Index r, double* out);
  /// P[v][j] += c[j] (per-column bias; c = −mean projects out the mean).
  void (*add_row_bias)(double* p, Index n, Index r, const double* c);
  /// F[v][j] := B[v][j] − c[j].
  void (*sub_row_bias)(const double* b, const double* c, double* f, Index n,
                       Index r);

  // ---- Blocked tree solve passes (multi-RHS, traversal amortized) ----

  /// Leaf-to-root flow accumulation: for i = n−1 … 1,
  /// F[parent[order[i]]][j] += F[order[i]][j]. The child-into-parent
  /// order is fixed by `order`, so per column this is the exact
  /// single-RHS sweep.
  void (*tree_accumulate)(const Vertex* order, const Vertex* parent, Index n,
                          double* f, Index r);
  /// Root-to-leaf potential integration: X[order[0]][j] = 0, then for
  /// i = 1 … n−1, v = order[i]:
  /// X[v][j] = X[parent[v]][j] + F[v][j] / parent_weight[v].
  void (*tree_integrate)(const Vertex* order, const Vertex* parent,
                         const double* parent_weight, Index n,
                         const double* f, double* x, Index r);
};

/// The active backend's kernel table (resolved on first use, see
/// `active_backend`).
[[nodiscard]] const Ops& ops();

/// A specific backend's table, or nullptr when not compiled/supported
/// (parity tests iterate the available tables).
[[nodiscard]] const Ops* ops_for(Backend b);

// ---- Span conveniences for the common vector kernels -----------------------

[[nodiscard]] inline double dot(std::span<const double> x,
                                std::span<const double> y) {
  return ops().dot(x.data(), y.data(), x.size());
}
[[nodiscard]] inline double sum(std::span<const double> x) {
  return ops().sum(x.data(), x.size());
}
[[nodiscard]] inline double nrm2sq(std::span<const double> x) {
  return ops().nrm2sq(x.data(), x.size());
}
[[nodiscard]] inline double sq_dist(std::span<const double> x,
                                    std::span<const double> y) {
  return ops().sq_dist(x.data(), y.data(), x.size());
}
inline void axpy(double a, std::span<const double> x, std::span<double> y) {
  ops().axpy(a, x.data(), y.data(), y.size());
}
inline void xpay(std::span<const double> x, double a, std::span<double> y) {
  ops().xpay(x.data(), a, y.data(), y.size());
}

}  // namespace ssp::kernels
