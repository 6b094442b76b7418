#include "core/sparsifier.hpp"

#include "core/sparsifier_engine.hpp"
#include "util/assert.hpp"

namespace ssp {

namespace {

// Per-field constraints, shared between the eager with_* setters and the
// full validate() pass so the two entry points cannot drift.
void check_sigma2(double value) {
  SSP_REQUIRE(value > 1.0, "sparsify: sigma2 must exceed 1");
}
void check_power_steps(int steps) {
  SSP_REQUIRE(steps >= 1, "sparsify: power_steps must be >= 1");
}
void check_num_vectors(Index r) {
  SSP_REQUIRE(r >= 0, "sparsify: num_vectors must be >= 0");
}
void check_max_rounds(Index rounds) {
  SSP_REQUIRE(rounds >= 1, "sparsify: max_rounds must be >= 1");
}
void check_max_edges_per_round(EdgeId cap) {
  SSP_REQUIRE(cap >= 0, "sparsify: max_edges_per_round must be >= 0");
}
void check_node_cap(Index cap) {
  SSP_REQUIRE(cap >= 1, "sparsify: node_cap must be >= 1");
}
void check_lambda_max_iterations(Index iterations) {
  SSP_REQUIRE(iterations >= 1,
              "sparsify: lambda_max_iterations must be >= 1");
}
void check_threads(int n) {
  SSP_REQUIRE(n >= 0, "sparsify: threads must be >= 0 (0 = auto)");
}

}  // namespace

void SparsifyOptions::validate() const {
  check_sigma2(sigma2);
  check_power_steps(power_steps);
  check_num_vectors(num_vectors);
  check_max_rounds(max_rounds);
  check_max_edges_per_round(max_edges_per_round);
  check_lambda_max_iterations(lambda_max_iterations);
  check_threads(threads);
  // Cross-field: node_cap only matters when a capped policy is active,
  // so direct field pokes of an unused cap stay legal.
  if (similarity != SimilarityPolicy::kNone) check_node_cap(node_cap);
}

SparsifyOptions& SparsifyOptions::with_sigma2(double value) {
  check_sigma2(value);
  sigma2 = value;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_backbone(BackboneKind kind) {
  backbone = kind;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_power_steps(int steps) {
  check_power_steps(steps);
  power_steps = steps;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_num_vectors(Index r) {
  check_num_vectors(r);
  num_vectors = r;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_max_rounds(Index rounds) {
  check_max_rounds(rounds);
  max_rounds = rounds;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_max_edges_per_round(EdgeId cap) {
  check_max_edges_per_round(cap);
  max_edges_per_round = cap;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_similarity(SimilarityPolicy policy) {
  similarity = policy;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_node_cap(Index cap) {
  check_node_cap(cap);
  node_cap = cap;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_lambda_max_iterations(Index iterations) {
  check_lambda_max_iterations(iterations);
  lambda_max_iterations = iterations;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_threads(int n) {
  check_threads(n);
  threads = n;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_seed(std::uint64_t value) {
  seed = value;
  return *this;
}

SparsifyOptions& SparsifyOptions::with_estimation(EstimationMode /*mode*/) {
  return *this;
}

SparsifyResult sparsify(const Graph& g, const SparsifyOptions& opts) {
  Sparsifier engine(g, opts);
  engine.run();
  return engine.take_result();
}

}  // namespace ssp
