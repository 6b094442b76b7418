#include "core/eigen_estimate.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "eigen/power_iteration.hpp"
#include "graph/laplacian.hpp"
#include "la/vector_ops.hpp"
#include "util/assert.hpp"

namespace ssp {

double estimate_lambda_min_node_coloring(const Graph& g,
                                         std::span<const char> in_sparsifier) {
  SSP_REQUIRE(g.finalized(), "lambda_min: graph must be finalized");
  SSP_REQUIRE(static_cast<EdgeId>(in_sparsifier.size()) == g.num_edges(),
              "lambda_min: in_sparsifier size must equal edge count");
  const Index n = g.num_vertices();
  SSP_REQUIRE(n >= 2, "lambda_min: need >= 2 vertices");

  Vec deg_p(static_cast<std::size_t>(n), 0.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_sparsifier[static_cast<std::size_t>(e)] == 0) continue;
    const Edge& edge = g.edge(e);
    deg_p[static_cast<std::size_t>(edge.u)] += edge.weight;
    deg_p[static_cast<std::size_t>(edge.v)] += edge.weight;
  }
  double best = std::numeric_limits<double>::infinity();
  for (Vertex v = 0; v < n; ++v) {
    const double dp = deg_p[static_cast<std::size_t>(v)];
    SSP_REQUIRE(dp > 0.0,
                "lambda_min: vertex with zero sparsifier degree (P must "
                "contain a spanning tree)");
    best = std::min(best, g.weighted_degree(v) / dp);
  }
  return best;
}

double estimate_lambda_min_node_coloring(const Graph& g, const Graph& p) {
  SSP_REQUIRE(g.num_vertices() == p.num_vertices(),
              "lambda_min: vertex count mismatch");
  SSP_REQUIRE(g.finalized() && p.finalized(),
              "lambda_min: graphs must be finalized");
  double best = std::numeric_limits<double>::infinity();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const double dp = p.weighted_degree(v);
    SSP_REQUIRE(dp > 0.0, "lambda_min: vertex with zero sparsifier degree");
    best = std::min(best, g.weighted_degree(v) / dp);
  }
  return best;
}

double estimate_lambda_max_power(const CsrMatrix& lg, const LinOp& solve_p,
                                 Rng& rng, Index iterations) {
  return estimate_lambda_max_power(
      lg, solve_p, random_probe_vector(lg.rows(), rng), iterations);
}

double estimate_lambda_max_power(const CsrMatrix& lg, const LinOp& solve_p,
                                 Vec start, Index iterations) {
  SSP_REQUIRE(iterations >= 1, "lambda_max: need >= 1 iteration");
  const PowerResult res = generalized_power_iteration(
      lg, solve_p, std::move(start),
      {.max_iterations = iterations, .rel_tolerance = 1e-4});
  return res.eigenvalue;
}

}  // namespace ssp
