// ssp_solve — solve the graph Laplacian system L x = b from a Matrix
// Market graph, with a selectable solver.
//
//   ssp_solve --in graph.mtx --method sparsifier --sigma2 50 --tol 1e-6
//
// Methods: cg | jacobi | ichol | tree | sparsifier | cholesky | amg.
// b defaults to a seeded random zero-mean vector (or --rhs file.mtx with
// an n×1 coordinate matrix).

#include <cstdio>
#include <exception>
#include <string>

#include "cli.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_preconditioner.hpp"
#include "eigen/operators.hpp"
#include "graph/laplacian.hpp"
#include "graph/mtx_io.hpp"
#include "la/vector_ops.hpp"
#include "solver/amg.hpp"
#include "solver/cholesky.hpp"
#include "solver/ichol.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "tree/kruskal.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace ssp;

int main(int argc, char** argv) {
  cli::ArgParser args("ssp_solve",
                      "solve a graph Laplacian system");
  args.option("in", cli::kGraphSourceHelp)
      .option("method", "cg|jacobi|ichol|tree|sparsifier|cholesky|amg",
              "sparsifier")
      .option("sigma2", "sparsifier target (method=sparsifier)", "100")
      .option("tol", "relative residual tolerance", "1e-6")
      .option("max-iters", "PCG iteration limit", "5000");
  cli::add_execution_options(args, "random RHS seed");
  return cli::run_tool(args, argc, argv, [&args] {
    cli::apply_threads(args);
    const Graph g = cli::load_graph_arg(args);
    const CsrMatrix l = laplacian(g);
    Rng rng(cli::seed_from(args));
    Vec b = rng.normal_vector(g.num_vertices());
    project_out_mean(b);
    Vec x(b.size(), 0.0);

    const std::string method = args.get("method", "sparsifier");
    const PcgOptions popts = {
        .max_iterations = args.get_int("max-iters", 5000),
        .rel_tolerance = args.get_double("tol", 1e-6),
        .project_constants = true};

    std::printf("|V| = %d, |E| = %lld, method = %s\n", g.num_vertices(),
                static_cast<long long>(g.num_edges()), method.c_str());
    const WallTimer total;
    PcgResult res;
    if (method == "cg") {
      res = cg_solve(l, b, x, popts);
    } else if (method == "jacobi") {
      const JacobiPreconditioner m(l);
      res = pcg_solve(l, b, x, m, popts);
    } else if (method == "ichol") {
      // IC(0) needs an SPD matrix: ground vertex 0 through a unit leak.
      std::vector<Triplet> ts;
      for (Index r = 0; r < l.rows(); ++r) {
        const auto cols = l.row_cols(r);
        const auto vals = l.row_vals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          ts.push_back({r, cols[k], vals[k]});
        }
      }
      ts.push_back({0, 0, 1.0});
      const CsrMatrix grounded =
          CsrMatrix::from_triplets(l.rows(), l.cols(), ts);
      const IncompleteCholesky m(grounded);
      res = pcg_solve(l, b, x, m, popts);
    } else if (method == "tree") {
      const SpanningTree tree = max_weight_spanning_tree(g);
      const TreePreconditioner m(tree);
      res = pcg_solve(l, b, x, m, popts);
    } else if (method == "sparsifier") {
      // Note: --seed only drives the random RHS; the sparsifier build
      // keeps its default seed so iteration-count sweeps over RHS draws
      // compare against one fixed preconditioner.
      const auto sopts =
          SparsifyOptions{}.with_sigma2(args.get_double("sigma2", 100.0));
      const SparsifyResult sp = sparsify(g, sopts);
      std::printf("sparsifier: %lld edges, sigma2 est %.2f, built in %.2fs\n",
                  static_cast<long long>(sp.num_edges()), sp.sigma2_estimate,
                  sp.total_seconds);
      const Graph p = sp.extract(g);
      const SparsifierPreconditioner m(p);
      res = pcg_solve(l, b, x, m, popts);
    } else if (method == "cholesky") {
      const SparseCholesky chol = SparseCholesky::factor_laplacian(l);
      chol.solve(b, x);
      res.converged = true;
      const Vec r = subtract(l.multiply(x), b);
      res.relative_residual = norm2(r) / norm2(b);
    } else if (method == "amg") {
      const AmgHierarchy amg = AmgHierarchy::build(l);
      res.iterations =
          amg.solve(b, x, popts.rel_tolerance, popts.max_iterations);
      const Vec r = subtract(l.multiply(x), b);
      res.relative_residual = norm2(r) / norm2(b);
      res.converged = res.relative_residual <= popts.rel_tolerance;
    } else {
      throw std::invalid_argument("unknown method '" + method + "'");
    }
    std::printf("%s in %lld iterations, rel residual %.3e, %.3fs total\n",
                res.converged ? "converged" : "NOT converged",
                static_cast<long long>(res.iterations),
                res.relative_residual, total.seconds());
    return res.converged ? 0 : 2;
  });
}
