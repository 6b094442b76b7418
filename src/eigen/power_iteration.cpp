#include "eigen/power_iteration.hpp"

#include <cmath>
#include <utility>

#include "la/vector_ops.hpp"
#include "util/assert.hpp"

namespace ssp {

PowerResult power_iteration(const LinOp& apply, Index n, Rng& rng,
                            const PowerOptions& opts) {
  SSP_REQUIRE(n >= 1, "power_iteration: empty operator");
  SSP_REQUIRE(opts.max_iterations >= 1, "power_iteration: need >= 1 iteration");

  Vec h;
  if (opts.project_constants) {
    h = random_probe_vector(n, rng);
  } else {
    h = rng.rademacher_vector(n);
    normalize(h);
  }
  Vec y(static_cast<std::size_t>(n));

  PowerResult result;
  double prev = 0.0;
  for (Index it = 1; it <= opts.max_iterations; ++it) {
    apply(h, y);
    if (opts.project_constants) project_out_mean(y);
    const double lambda = dot(h, y);  // Rayleigh quotient (h normalized)
    result.iterations = it;
    result.eigenvalue = lambda;
    const double ynorm = norm2(y);
    if (ynorm == 0.0) break;  // h in the nullspace; eigenvalue 0
    scale(y, 1.0 / ynorm);
    h = y;
    if (it > 1 &&
        std::abs(lambda - prev) <= opts.rel_tolerance * std::abs(lambda)) {
      break;
    }
    prev = lambda;
  }
  result.vector = std::move(h);
  return result;
}

PowerResult generalized_power_iteration(const CsrMatrix& lg,
                                        const LinOp& solve_p, Rng& rng,
                                        const PowerOptions& opts) {
  return generalized_power_iteration(lg, solve_p,
                                     random_probe_vector(lg.rows(), rng), opts);
}

PowerResult generalized_power_iteration(const CsrMatrix& lg,
                                        const LinOp& solve_p, Vec start,
                                        const PowerOptions& opts) {
  const Index n = lg.rows();
  SSP_REQUIRE(lg.rows() == lg.cols(), "generalized power: L_G not square");
  SSP_REQUIRE(n >= 2, "generalized power: need >= 2 vertices");
  const auto un = static_cast<std::size_t>(n);
  SSP_REQUIRE(start.size() == un, "generalized power: start vector size");

  Vec h = std::move(start);

  Vec gh(un);    // L_G h
  Vec hn(un);    // next iterate L_P^+ L_G h
  Vec ghn(un);   // L_G hn
  Vec pair_in(2 * un);   // [hn, h] as a row-major n×2 panel
  Vec pair_out(2 * un);  // [L_G hn, L_G h]
  lg.multiply(h, gh);
  PowerResult result;
  double prev = 0.0;
  for (Index it = 1; it <= opts.max_iterations; ++it) {
    solve_p(gh, hn);
    project_out_mean(hn);
    // Rayleigh quotient of the pencil at hn:
    //   λ ≈ (hnᵀ L_G hn) / (hnᵀ L_P hn), and hnᵀ L_P hn = hnᵀ L_G h
    // because L_P hn = L_P L_P⁺ L_G h = (projected) L_G h.
    const double denom = dot(hn, gh);
    result.iterations = it;
    if (denom <= 0.0) break;  // numerical degeneracy; keep last estimate
    const double nrm = norm2(hn);
    if (nrm != 0.0) {
      h = hn;
      scale(h, 1.0 / nrm);
    }
    // L_G·hn for the numerator and L_G·h for the next step in one pass
    // over L_G; each panel column is bit-identical to its own multiply.
    for (std::size_t i = 0; i < un; ++i) {
      pair_in[2 * i] = hn[i];
      pair_in[2 * i + 1] = h[i];
    }
    lg.multiply_panel(pair_in, pair_out, 2);
    for (std::size_t i = 0; i < un; ++i) {
      ghn[i] = pair_out[2 * i];
      gh[i] = pair_out[2 * i + 1];
    }
    const double lambda = dot(hn, ghn) / denom;
    result.eigenvalue = lambda;
    if (nrm == 0.0) break;
    if (it > 1 && std::abs(lambda - prev) <=
                      opts.rel_tolerance * std::abs(lambda)) {
      break;
    }
    prev = lambda;
  }
  result.vector = std::move(h);
  return result;
}

}  // namespace ssp
