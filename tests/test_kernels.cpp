// Tests for src/la/kernels: every SIMD backend must reproduce the generic
// scalar reference BIT FOR BIT — across sizes (lane tails), special values
// (signed zeros, infinities, NaN propagation), aliased and unaligned
// inputs — and the panel (multi-RHS) kernels must make each column
// bit-identical to the corresponding single-RHS call, all the way up
// through TreeSolver::solve_multi and the spectral embedding.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/embedding.hpp"
#include "eigen/operators.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/laplacian.hpp"
#include "la/csr_matrix.hpp"
#include "la/kernels/kernels.hpp"
#include "la/vector_ops.hpp"
#include "tree/kruskal.hpp"
#include "tree/tree_solver.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

using kernels::Backend;
using kernels::Ops;

/// Sizes exercising every lane-tail case (n mod 4 ∈ {0,1,2,3}), the empty
/// vector, and a bulk size.
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,  5,  6,
                                         7,  8,  9,  10, 11, 12, 13,
                                         14, 15, 16, 17, 31, 33, 1000};

std::vector<Backend> simd_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (kernels::backend_supported(b)) out.push_back(b);
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bits_eq(double a, double b, const char* what, std::size_t i) {
  // NaN-ness must agree, but NaN sign/payload is outside the determinism
  // contract: scalar `s += p` propagates whichever NaN operand the
  // compiler register-allocated as the addsd destination, so `+nan + -nan`
  // is ±nan depending on codegen (see kernel_config.hpp).
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(bits(a), bits(b)) << what << " diverges at element " << i
                              << ": " << a << " vs " << b;
}

void expect_vec_bits_eq(const Vec& a, const Vec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bits_eq(a[i], b[i], what, i);
  }
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (double& x : v) x = rng.normal() * 3.0;
  return v;
}

TEST(Kernels, GenericAlwaysAvailable) {
  EXPECT_TRUE(kernels::backend_compiled(Backend::kGeneric));
  EXPECT_TRUE(kernels::backend_supported(Backend::kGeneric));
  ASSERT_NE(kernels::ops_for(Backend::kGeneric), nullptr);
  EXPECT_STREQ(kernels::backend_name(Backend::kGeneric), "generic");
}

TEST(Kernels, SetBackendRejectsUnavailable) {
  for (Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (!kernels::backend_supported(b)) {
      EXPECT_THROW(kernels::set_backend(b), std::runtime_error);
      EXPECT_EQ(kernels::ops_for(b), nullptr);
    }
  }
}

TEST(Kernels, ScopedBackendRestores) {
  const Backend before = kernels::active_backend();
  {
    kernels::ScopedBackend scope(Backend::kGeneric);
    EXPECT_EQ(kernels::active_backend(), Backend::kGeneric);
  }
  EXPECT_EQ(kernels::active_backend(), before);
}

TEST(Kernels, ReductionParityAcrossSizes) {
  const Ops& g = *kernels::ops_for(Backend::kGeneric);
  Rng rng(11);
  for (Backend b : simd_backends()) {
    const Ops& s = *kernels::ops_for(b);
    for (std::size_t n : kSizes) {
      const Vec x = random_vec(n, rng);
      const Vec y = random_vec(n, rng);
      expect_bits_eq(g.dot(x.data(), y.data(), n), s.dot(x.data(), y.data(), n),
                     "dot", n);
      expect_bits_eq(g.sum(x.data(), n), s.sum(x.data(), n), "sum", n);
      expect_bits_eq(g.nrm2sq(x.data(), n), s.nrm2sq(x.data(), n), "nrm2sq",
                     n);
      expect_bits_eq(g.sq_dist(x.data(), y.data(), n),
                     s.sq_dist(x.data(), y.data(), n), "sq_dist", n);
      expect_bits_eq(g.norm_inf(x.data(), n), s.norm_inf(x.data(), n),
                     "norm_inf", n);
    }
  }
}

TEST(Kernels, ElementwiseParityAcrossSizes) {
  const Ops& g = *kernels::ops_for(Backend::kGeneric);
  Rng rng(12);
  for (Backend b : simd_backends()) {
    const Ops& s = *kernels::ops_for(b);
    for (std::size_t n : kSizes) {
      const Vec x = random_vec(n, rng);
      const Vec y0 = random_vec(n, rng);
      const double a = rng.normal();

      Vec yg = y0, ys = y0;
      g.axpy(a, x.data(), yg.data(), n);
      s.axpy(a, x.data(), ys.data(), n);
      expect_vec_bits_eq(yg, ys, "axpy");

      yg = y0;
      ys = y0;
      g.xpay(x.data(), a, yg.data(), n);
      s.xpay(x.data(), a, ys.data(), n);
      expect_vec_bits_eq(yg, ys, "xpay");

      yg = y0;
      ys = y0;
      g.scal(a, yg.data(), n);
      s.scal(a, ys.data(), n);
      expect_vec_bits_eq(yg, ys, "scal");

      yg = y0;
      ys = y0;
      g.shift(a, yg.data(), n);
      s.shift(a, ys.data(), n);
      expect_vec_bits_eq(yg, ys, "shift");

      Vec zg(n), zs(n);
      g.sub(x.data(), y0.data(), zg.data(), n);
      s.sub(x.data(), y0.data(), zs.data(), n);
      expect_vec_bits_eq(zg, zs, "sub");
      g.add(x.data(), y0.data(), zg.data(), n);
      s.add(x.data(), y0.data(), zs.data(), n);
      expect_vec_bits_eq(zg, zs, "add");
    }
  }
}

TEST(Kernels, FusedMatchesComposedOnEveryBackend) {
  Rng rng(13);
  std::vector<Backend> backends = {Backend::kGeneric};
  for (Backend b : simd_backends()) backends.push_back(b);
  for (Backend be : backends) {
    const Ops& k = *kernels::ops_for(be);
    for (std::size_t n : kSizes) {
      const Vec x = random_vec(n, rng);
      const Vec y0 = random_vec(n, rng);
      const double a = rng.normal();

      // axpy_sum == axpy; sum — both the returned sum and the updated y.
      Vec y_fused = y0, y_composed = y0;
      const double s_fused = k.axpy_sum(a, x.data(), y_fused.data(), n);
      k.axpy(a, x.data(), y_composed.data(), n);
      const double s_composed = k.sum(y_composed.data(), n);
      expect_bits_eq(s_fused, s_composed, "axpy_sum value", n);
      expect_vec_bits_eq(y_fused, y_composed, "axpy_sum y");

      // shift_nrm2sq == shift; nrm2sq.
      Vec x_fused = x, x_composed = x;
      const double q_fused = k.shift_nrm2sq(a, x_fused.data(), n);
      k.shift(a, x_composed.data(), n);
      const double q_composed = k.nrm2sq(x_composed.data(), n);
      expect_bits_eq(q_fused, q_composed, "shift_nrm2sq value", n);
      expect_vec_bits_eq(x_fused, x_composed, "shift_nrm2sq x");

      // nrm2sq == dot(x, x); sq_dist == sub; nrm2sq.
      expect_bits_eq(k.nrm2sq(x.data(), n), k.dot(x.data(), x.data(), n),
                     "nrm2sq vs dot", n);
      Vec d(n);
      k.sub(x.data(), y0.data(), d.data(), n);
      expect_bits_eq(k.sq_dist(x.data(), y0.data(), n),
                     k.nrm2sq(d.data(), n), "sq_dist vs sub+nrm2sq", n);
    }
  }
}

TEST(Kernels, SpecialValueParity) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Mixed specials at every lane position plus a tail.
  const Vec x = {0.0, -0.0, inf, -inf, nan, 1.0, -2.5, 1e-308,
                 -1e308, 0.0, nan, inf, 3.0};
  const Vec y = {-0.0, 0.0, 1.0, inf, 2.0, nan, -0.0, 1e308,
                 1e-308, -inf, 0.5, -1.0, -3.0};
  const std::size_t n = x.size();
  const Ops& g = *kernels::ops_for(Backend::kGeneric);

  // The reference semantics themselves: NaN propagates through sums;
  // norm_inf follows MAXPD semantics (not sticky — a later element in the
  // same lane replaces a NaN accumulator), so only NaN-ness up to the
  // lane order is defined, and parity below is the real check.
  EXPECT_TRUE(std::isnan(g.sum(x.data(), n)));

  for (Backend b : simd_backends()) {
    const Ops& s = *kernels::ops_for(b);
    for (std::size_t m = 0; m <= n; ++m) {
      expect_bits_eq(g.dot(x.data(), y.data(), m),
                     s.dot(x.data(), y.data(), m), "special dot", m);
      expect_bits_eq(g.sum(x.data(), m), s.sum(x.data(), m), "special sum",
                     m);
      expect_bits_eq(g.norm_inf(x.data(), m), s.norm_inf(x.data(), m),
                     "special norm_inf", m);
      expect_bits_eq(g.sq_dist(x.data(), y.data(), m),
                     s.sq_dist(x.data(), y.data(), m), "special sq_dist", m);
      Vec zg(n), zs(n);
      g.add(x.data(), y.data(), zg.data(), m);
      s.add(x.data(), y.data(), zs.data(), m);
      for (std::size_t i = 0; i < m; ++i) {
        expect_bits_eq(zg[i], zs[i], "special add", i);
      }
    }
  }
}

TEST(Kernels, AliasedArgumentsParity) {
  Rng rng(14);
  const std::size_t n = 33;
  const Vec x0 = random_vec(n, rng);
  const Vec y0 = random_vec(n, rng);
  const Ops& g = *kernels::ops_for(Backend::kGeneric);
  for (Backend b : simd_backends()) {
    const Ops& s = *kernels::ops_for(b);
    // sub(x, y, x): output aliases the first input.
    Vec ag = x0, as = x0;
    g.sub(ag.data(), y0.data(), ag.data(), n);
    s.sub(as.data(), y0.data(), as.data(), n);
    expect_vec_bits_eq(ag, as, "aliased sub");
    // add(x, y, y): output aliases the second input.
    ag = y0;
    as = y0;
    g.add(x0.data(), ag.data(), ag.data(), n);
    s.add(x0.data(), as.data(), as.data(), n);
    expect_vec_bits_eq(ag, as, "aliased add");
    // axpy(a, x, x): y aliases x.
    ag = x0;
    as = x0;
    g.axpy(1.5, ag.data(), ag.data(), n);
    s.axpy(1.5, as.data(), as.data(), n);
    expect_vec_bits_eq(ag, as, "aliased axpy");
    // dot(x, x) — trivially must agree with nrm2sq path.
    expect_bits_eq(g.dot(x0.data(), x0.data(), n),
                   s.dot(x0.data(), x0.data(), n), "aliased dot", n);
  }
}

TEST(Kernels, UnalignedPointersParity) {
  // SIMD backends use unaligned loads; feeding pointers offset by one
  // double from the allocation start must neither crash nor change bits.
  Rng rng(15);
  const std::size_t n = 257;
  const Vec xbuf = random_vec(n + 1, rng);
  const Vec ybuf = random_vec(n + 1, rng);
  const double* x = xbuf.data() + 1;
  const double* y = ybuf.data() + 1;
  const Ops& g = *kernels::ops_for(Backend::kGeneric);
  for (Backend b : simd_backends()) {
    const Ops& s = *kernels::ops_for(b);
    expect_bits_eq(g.dot(x, y, n), s.dot(x, y, n), "unaligned dot", n);
    expect_bits_eq(g.nrm2sq(x, n), s.nrm2sq(x, n), "unaligned nrm2sq", n);
    Vec outg(n + 1), outs(n + 1);
    g.sub(x, y, outg.data() + 1, n);
    s.sub(x, y, outs.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      expect_bits_eq(outg[i], outs[i], "unaligned sub", i);
    }
  }
}

TEST(Kernels, SpmvPanelColumnsMatchSingleRhs) {
  Rng rng(16);
  const Graph g =
      erdos_renyi_connected(60, 200, rng, WeightModel::uniform(0.5, 2.0));
  const CsrMatrix lg = laplacian(g);
  const Index n = lg.rows();
  // Every tail shape of the one-pass row loop: r mod 4 in {0, 1, 2, 3}
  // with zero, one and two vector blocks, and the r > 8 row-held
  // accumulator form.
  for (const Index r : {Index{1}, Index{2}, Index{3}, Index{4}, Index{5},
                        Index{6}, Index{7}, Index{8}, Index{11}}) {
    Vec panel_x(static_cast<std::size_t>(n * r));
    for (double& v : panel_x) v = rng.normal();
    Vec panel_y(static_cast<std::size_t>(n * r));
    {
      kernels::ScopedBackend scope(Backend::kGeneric);
      lg.multiply_panel(panel_x, panel_y, r);
    }

    Vec col_x(static_cast<std::size_t>(n));
    Vec col_y(static_cast<std::size_t>(n));
    for (Index j = 0; j < r; ++j) {
      for (Index v = 0; v < n; ++v) {
        col_x[static_cast<std::size_t>(v)] =
            panel_x[static_cast<std::size_t>(v * r + j)];
      }
      lg.multiply(col_x, col_y);
      for (Index v = 0; v < n; ++v) {
        expect_bits_eq(panel_y[static_cast<std::size_t>(v * r + j)],
                       col_y[static_cast<std::size_t>(v)], "spmv_panel col",
                       static_cast<std::size_t>(v));
      }
    }

    // And the panel itself is backend-invariant (generic reference above).
    for (Backend b : simd_backends()) {
      kernels::ScopedBackend scope(b);
      Vec panel_y2(static_cast<std::size_t>(n * r));
      lg.multiply_panel(panel_x, panel_y2, r);
      expect_vec_bits_eq(panel_y, panel_y2, "spmv_panel backend");
    }
  }
}

TEST(Kernels, ColSumsAndRowBiasParity) {
  Rng rng(17);
  const Ops& g = *kernels::ops_for(Backend::kGeneric);
  for (const Index n : {Index{1}, Index{5}, Index{64}, Index{101}}) {
    for (const Index r : {Index{1}, Index{3}, Index{4}, Index{6}, Index{9}}) {
      Vec p(static_cast<std::size_t>(n * r));
      for (double& v : p) v = rng.normal();

      // col_sums[j] must equal kernels::sum of the gathered column.
      Vec sums(static_cast<std::size_t>(r));
      g.col_sums(p.data(), n, r, sums.data());
      Vec col(static_cast<std::size_t>(n));
      for (Index j = 0; j < r; ++j) {
        for (Index v = 0; v < n; ++v) {
          col[static_cast<std::size_t>(v)] =
              p[static_cast<std::size_t>(v * r + j)];
        }
        expect_bits_eq(sums[static_cast<std::size_t>(j)],
                       g.sum(col.data(), static_cast<std::size_t>(n)),
                       "col_sums vs sum", static_cast<std::size_t>(j));
      }

      Vec bias(static_cast<std::size_t>(r));
      for (double& v : bias) v = rng.normal();
      for (Backend b : simd_backends()) {
        const Ops& s = *kernels::ops_for(b);
        Vec sums2(static_cast<std::size_t>(r));
        s.col_sums(p.data(), n, r, sums2.data());
        expect_vec_bits_eq(sums, sums2, "col_sums backend");

        Vec pg = p, ps = p;
        g.add_row_bias(pg.data(), n, r, bias.data());
        s.add_row_bias(ps.data(), n, r, bias.data());
        expect_vec_bits_eq(pg, ps, "add_row_bias backend");

        Vec fg(p.size()), fs(p.size());
        g.sub_row_bias(p.data(), bias.data(), fg.data(), n, r);
        s.sub_row_bias(p.data(), bias.data(), fs.data(), n, r);
        expect_vec_bits_eq(fg, fs, "sub_row_bias backend");
      }
    }
  }
}

TEST(Kernels, TreeSolveMultiColumnsMatchSingleSolve) {
  Rng rng(18);
  const Graph g =
      erdos_renyi_connected(80, 300, rng, WeightModel::uniform(0.5, 2.0));
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const auto n = static_cast<Index>(g.num_vertices());

  for (const Index r : {Index{1}, Index{3}, Index{4}, Index{8}}) {
    Vec panel_b(static_cast<std::size_t>(n * r));
    for (double& v : panel_b) v = rng.normal();
    Vec panel_x(static_cast<std::size_t>(n * r));
    solver.solve_multi(panel_b, panel_x, r);

    Vec col_b(static_cast<std::size_t>(n));
    Vec col_x(static_cast<std::size_t>(n));
    for (Index j = 0; j < r; ++j) {
      for (Index v = 0; v < n; ++v) {
        col_b[static_cast<std::size_t>(v)] =
            panel_b[static_cast<std::size_t>(v * r + j)];
      }
      solver.solve(col_b, col_x);
      for (Index v = 0; v < n; ++v) {
        expect_bits_eq(panel_x[static_cast<std::size_t>(v * r + j)],
                       col_x[static_cast<std::size_t>(v)], "solve_multi col",
                       static_cast<std::size_t>(v));
      }
    }

    for (Backend b : simd_backends()) {
      kernels::ScopedBackend scope(b);
      Vec panel_x2(static_cast<std::size_t>(n * r));
      solver.solve_multi(panel_b, panel_x2, r);
      expect_vec_bits_eq(panel_x, panel_x2, "solve_multi backend");
    }
  }
}

std::vector<char> tree_membership(const Graph& g, const SpanningTree& t) {
  std::vector<char> in_p(static_cast<std::size_t>(g.num_edges()), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (t.contains(e)) in_p[static_cast<std::size_t>(e)] = 1;
  }
  return in_p;
}

TEST(Kernels, EmbeddingPanelSolverMatchesColumnwise) {
  // The blocked tree solve and the column-wise fallback must produce the
  // same heats bit for bit (solve_multi columns == solve).
  Rng rng(19);
  const Graph g =
      erdos_renyi_connected(70, 260, rng, WeightModel::uniform(0.5, 2.0));
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const auto in_p = tree_membership(g, tree);
  const CsrMatrix lg = laplacian(g);
  const EmbeddingOptions opts = {.power_steps = 2, .num_vectors = 7};

  EmbeddingWorkspace ws;
  OffTreeEmbedding with_panel;
  Rng rng_a(123);
  compute_offtree_heat(g, lg, in_p, make_tree_solver_op(solver), opts, rng_a,
                       ws, with_panel, make_tree_solver_panel_op(solver));

  OffTreeEmbedding columnwise;
  Rng rng_b(123);
  compute_offtree_heat(g, lg, in_p, make_tree_solver_op(solver), opts, rng_b,
                       ws, columnwise);

  ASSERT_EQ(with_panel.heat.size(), columnwise.heat.size());
  for (std::size_t k = 0; k < with_panel.heat.size(); ++k) {
    expect_bits_eq(with_panel.heat[k], columnwise.heat[k], "embedding heat",
                   k);
  }
}

TEST(Kernels, EmbeddingBackendAndThreadParity) {
  Rng rng(20);
  const Graph g =
      erdos_renyi_connected(90, 350, rng, WeightModel::uniform(0.5, 2.0));
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const auto in_p = tree_membership(g, tree);
  const CsrMatrix lg = laplacian(g);

  const auto run = [&](int threads) {
    EmbeddingWorkspace ws;
    OffTreeEmbedding emb;
    Rng r(99);
    compute_offtree_heat(
        g, lg, in_p, make_tree_solver_op(solver),
        {.power_steps = 2, .num_vectors = 6, .threads = threads}, r, ws, emb,
        make_tree_solver_panel_op(solver));
    return emb.heat;
  };

  kernels::ScopedBackend ref_scope(Backend::kGeneric);
  const Vec reference = run(1);
  expect_vec_bits_eq(reference, run(4), "embedding threads=4 (generic)");
  for (Backend b : simd_backends()) {
    kernels::ScopedBackend scope(b);
    expect_vec_bits_eq(reference, run(1), "embedding backend t1");
    expect_vec_bits_eq(reference, run(4), "embedding backend t4");
  }
}

}  // namespace
}  // namespace ssp
