#include "core/edge_filter.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace ssp {

double heat_threshold(double sigma2, double lambda_min, double lambda_max,
                      int power_steps) {
  SSP_REQUIRE(sigma2 > 0.0, "heat_threshold: sigma2 must be positive");
  SSP_REQUIRE(lambda_min > 0.0 && lambda_max > 0.0,
              "heat_threshold: eigenvalue estimates must be positive");
  SSP_REQUIRE(power_steps >= 1, "heat_threshold: power_steps must be >= 1");
  const double ratio = sigma2 * lambda_min / lambda_max;
  const double theta = std::pow(ratio, 2 * power_steps + 1);
  return std::clamp(theta, 0.0, 1.0);
}

namespace {

struct Candidate {
  double heat;
  EdgeId id;
};

// Descending heat with an ascending edge-id tiebreak: a strict total order
// over the candidates (ids are distinct), so every selection or sort
// algorithm yields the same sequence. Equal heats are common on symmetric
// graphs, and without the tiebreak the accepted set — and through the
// node-disjoint policy the whole sparsifier — would depend on the STL.
bool hotter(const Candidate& a, const Candidate& b) {
  if (a.heat != b.heat) return a.heat > b.heat;
  return a.id < b.id;
}

// First batch, in multiples of max_edges: the similarity policies skip
// most of the hottest edges on dense graphs, so a round examines several
// times its cap before it is full.
constexpr std::size_t kFirstBatchPerEdge = 8;

}  // namespace

std::vector<EdgeId> filter_offtree_edges(const Graph& g,
                                         const OffTreeEmbedding& emb,
                                         double theta,
                                         const FilterOptions& opts,
                                         FilterStats* stats) {
  SSP_REQUIRE(theta >= 0.0 && theta <= 1.0, "filter: theta must be in [0,1]");
  SSP_REQUIRE(emb.offtree_edges.size() == emb.heat.size(),
              "filter: malformed embedding");
  std::vector<EdgeId> selected;
  if (emb.offtree_edges.empty() || emb.heat_max <= 0.0) return selected;

  std::vector<Candidate> cand;
  cand.reserve(emb.offtree_edges.size());
  const double cut = theta * emb.heat_max;
  for (std::size_t k = 0; k < emb.heat.size(); ++k) {
    if (emb.heat[k] >= cut) cand.push_back({emb.heat[k], emb.offtree_edges[k]});
  }

  const Index cap =
      opts.similarity == SimilarityPolicy::kNodeDisjoint ? 1 : opts.node_cap;
  SSP_REQUIRE(opts.similarity == SimilarityPolicy::kNone || cap >= 1,
              "filter: node_cap must be >= 1");
  std::vector<Index> touched(
      opts.similarity == SimilarityPolicy::kNone
          ? 0
          : static_cast<std::size_t>(g.num_vertices()),
      0);
  const auto full = [&] {
    return opts.max_edges > 0 &&
           static_cast<EdgeId>(selected.size()) >= opts.max_edges;
  };

  // Lazy top-k: only the prefix the walk below reaches is ever sorted.
  // Each batch is the hottest slice of the remainder (nth_element), sorted
  // under the same total order, so the visiting order equals a full sort.
  std::size_t batch = cand.size();
  if (opts.max_edges > 0 &&
      static_cast<std::size_t>(opts.max_edges) < batch / kFirstBatchPerEdge) {
    batch = kFirstBatchPerEdge * static_cast<std::size_t>(opts.max_edges);
  }
  std::size_t examined = 0;
  for (std::size_t begin = 0; begin < cand.size() && !full(); batch *= 2) {
    const std::size_t end = std::min(cand.size(), begin + batch);
    const auto first = cand.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = cand.begin() + static_cast<std::ptrdiff_t>(end);
    if (last != cand.end()) std::nth_element(first, last, cand.end(), hotter);
    std::sort(first, last, hotter);
    for (; begin < end && !full(); ++begin) {
      ++examined;
      const EdgeId id = cand[begin].id;
      const Edge& e = g.edge(id);
      if (opts.similarity != SimilarityPolicy::kNone) {
        auto& tu = touched[static_cast<std::size_t>(e.u)];
        auto& tv = touched[static_cast<std::size_t>(e.v)];
        if (tu >= cap || tv >= cap) continue;  // similar to an accepted edge
        ++tu;
        ++tv;
      }
      selected.push_back(id);
    }
  }
  if (stats != nullptr) {
    stats->candidates += cand.size();
    stats->examined += examined;
  }
  return selected;
}

}  // namespace ssp
