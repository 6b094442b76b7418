// Preconditioner shootout on the Table 2 solve scenario: plain CG, Jacobi,
// IC(0), bare spanning tree, AMG, and similarity-aware sparsifiers at
// sigma^2 = 200 and 50 — iterations to ||Ax-b|| <= 1e-3||b|| plus setup
// time. Contextualizes the paper's preconditioner against the standard
// toolbox. The sparsifier rows also time one apply (a sparse-Cholesky
// solve) at 1 and 2 pool threads and check that both give the same bits.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_preconditioner.hpp"
#include "graph/laplacian.hpp"
#include "la/vector_ops.hpp"
#include "solver/amg.hpp"
#include "solver/ichol.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "tree/kruskal.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace {

using namespace ssp;
using bench::dim;

/// Median seconds of one `m.apply(r, z)` over `reps` applies with the pool
/// capped at `threads`; z holds the last output.
double median_apply_seconds(const Preconditioner& m, std::span<const double> r,
                            Vec& z, int threads, int reps = 201) {
  set_default_threads(threads);
  std::vector<double> seconds(static_cast<std::size_t>(reps));
  for (double& s : seconds) {
    const WallTimer t;
    m.apply(r, z);
    s = t.seconds();
  }
  set_default_threads(0);
  const auto mid = seconds.begin() + reps / 2;
  std::nth_element(seconds.begin(), mid, seconds.end());
  return *mid;
}

void print_shootout(bench::Report& report) {
  bench::print_banner(
      "Preconditioner shootout — PCG on L_G x = b to 1e-3 (Table 2 "
      "scenario)\ncolumns: iterations (setup seconds)");
  Rng wrng(901);
  const Vertex side = dim(150, 600);
  const Graph g = grid_2d(side, side,
                          WeightModel::log_uniform(1e-2, 1e2), &wrng);
  const CsrMatrix lg = laplacian(g);
  Rng rng(7);
  Vec b = rng.normal_vector(g.num_vertices());
  project_out_mean(b);
  const PcgOptions opts = {.max_iterations = 20000,
                           .rel_tolerance = 1e-3,
                           .project_constants = true};
  std::printf("graph: %d-vertex weighted grid (weights span 4 decades)\n\n",
              g.num_vertices());
  std::printf("%-22s %10s %12s\n", "preconditioner", "iters", "setup(s)");
  bench::print_rule(48);

  auto run = [&](const char* name, const Preconditioner& m,
                 double setup) -> bench::Json& {
    Vec x(b.size(), 0.0);
    const PcgResult r = pcg_solve(lg, b, x, m, opts);
    std::printf("%-22s %10lld %11.2fs%s\n", name,
                static_cast<long long>(r.iterations), setup,
                r.converged ? "" : "  [no convergence]");
    return report.section("cases").push(
        bench::Json::object()
            .set("preconditioner", name)
            .set("vertices", g.num_vertices())
            .set("edges", static_cast<long long>(g.num_edges()))
            .set("iterations", static_cast<long long>(r.iterations))
            .set("setup_seconds", setup)
            .set("converged", r.converged));
  };

  {
    const IdentityPreconditioner id(lg.rows());
    run("none (plain CG)", id, 0.0);
  }
  {
    WallTimer t;
    const JacobiPreconditioner m(lg);
    run("Jacobi", m, t.seconds());
  }
  {
    WallTimer t;
    // Ground vertex 0 through a unit leak so IC(0) sees an SPD matrix.
    std::vector<Triplet> ts;
    for (Index r = 0; r < lg.rows(); ++r) {
      const auto cols = lg.row_cols(r);
      const auto vals = lg.row_vals(r);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        ts.push_back({r, cols[k], vals[k]});
      }
    }
    ts.push_back({0, 0, 1.0});
    const CsrMatrix grounded =
        CsrMatrix::from_triplets(lg.rows(), lg.cols(), ts);
    const IncompleteCholesky m(grounded);
    run("IC(0)", m, t.seconds());
  }
  {
    WallTimer t;
    const SpanningTree tree = max_weight_spanning_tree(g);
    const TreePreconditioner m(tree);
    run("spanning tree", m, t.seconds());
  }
  {
    WallTimer t;
    const AmgHierarchy amg = AmgHierarchy::build(lg);
    const AmgPreconditioner m(amg);
    run("AMG V-cycle", m, t.seconds());
  }
  for (const double sigma2 : {200.0, 50.0}) {
    WallTimer t;
    const SparsifyResult sp = sparsify(g, {.sigma2 = sigma2});
    const Graph p = sp.extract(g);
    const SparsifierPreconditioner m(p);
    char name[64];
    std::snprintf(name, sizeof(name), "sparsifier s2=%.0f", sigma2);
    bench::Json& row = run(name, m, t.seconds());
    // The factor splits its etree into default_threads() bins; a solve at
    // any thread count must give the same bits.
    Vec z1(b.size());
    Vec z2(b.size());
    const double apply_1t = median_apply_seconds(m, b, z1, 1);
    const double apply_2t = median_apply_seconds(m, b, z2, 2);
    const bool bitmatch =
        std::memcmp(z1.data(), z2.data(), z1.size() * sizeof(double)) == 0;
    std::printf("%-22s apply %.1f us at 1 thread, %.1f us at 2%s\n", "",
                apply_1t * 1e6, apply_2t * 1e6,
                bitmatch ? "" : "  [outputs differ]");
    row.set("apply_seconds_1t", apply_1t)
        .set("apply_seconds_2t", apply_2t)
        .set("apply_bitmatch", bitmatch);
  }
  bench::print_rule(48);
  std::printf("similarity-aware sparsifiers trade setup time for the "
              "lowest iteration counts;\nIC(0)/Jacobi struggle as the "
              "weight spread grows.\n");
}

void BM_Ic0Setup(benchmark::State& state) {
  Rng rng(11);
  const Graph g = grid_2d(static_cast<Vertex>(state.range(0)),
                          static_cast<Vertex>(state.range(0)),
                          WeightModel::uniform(0.5, 2.0), &rng);
  const CsrMatrix l = laplacian(g);
  std::vector<Triplet> ts;
  for (Index r = 0; r < l.rows(); ++r) {
    const auto cols = l.row_cols(r);
    const auto vals = l.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      ts.push_back({r, cols[k], vals[k]});
    }
  }
  ts.push_back({0, 0, 1.0});
  const CsrMatrix grounded = CsrMatrix::from_triplets(l.rows(), l.cols(), ts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IncompleteCholesky(grounded));
  }
}
BENCHMARK(BM_Ic0Setup)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ssp::bench::Report report("preconditioners");
  print_shootout(report);
  report.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
