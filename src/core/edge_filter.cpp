#include "core/edge_filter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

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

// Order key of a candidate heat. Candidate heats are ≥ +0.0 (−0.0 is
// mapped to +0.0 when collected), and the IEEE-754 bits of non-negative
// doubles order like their values, +inf above every finite heat. So keys
// order candidates as `hotter` does on heat, and tie exactly where it ties.
std::uint64_t heat_key(double heat) {
  return std::bit_cast<std::uint64_t>(heat);
}

// At most 2^12 = 4096 buckets (fewer for small candidate sets). On
// dense-network rounds (~17k candidates over ~20 binades of heat, 1-4k
// examined, 4-vCPU VM) the filter took 1.94 / 1.89 / 1.88 / 1.87 /
// 1.91 ms per instance at 2^10 / 2^11 / 2^12 / 2^13 / 2^14 buckets.
constexpr int kMaxBucketBits = 12;

// A reached bucket holding more than this many times max_edges candidates
// is not sorted whole: the similarity policies skip most of the hottest
// edges on dense graphs, so a round examines several times its cap, and
// doubling batches from this size on cover that without a full sort.
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

  // One pass: the candidates in input order and the range of their keys.
  // θ = 0 admits every heat ≥ 0 (θ·heat_max is NaN for an infinite max).
  const double cut = theta > 0.0 ? theta * emb.heat_max : 0.0;
  std::vector<Candidate> cand;
  cand.reserve(emb.offtree_edges.size());
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (std::size_t k = 0; k < emb.heat.size(); ++k) {
    double heat = emb.heat[k];
    if (!(heat >= cut)) continue;
    if (heat == 0.0) heat = 0.0;  // −0.0 → +0.0
    lo = std::min(lo, heat_key(heat));
    hi = std::max(hi, heat_key(heat));
    cand.push_back({heat, emb.offtree_edges[k]});
  }
  if (stats != nullptr) stats->candidates += cand.size();
  if (cand.empty()) return selected;

  // Stable counting sort into buckets of width 2^shift over the key span,
  // hottest bucket first. Concatenating the buckets, each sorted under
  // `hotter`, gives the full sort's order. With shift 0 every bucket holds
  // one heat, so a stable scatter of id-ascending input is already sorted.
  const int bucket_bits =
      std::min(kMaxBucketBits, static_cast<int>(std::bit_width(cand.size())));
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(hi - lo)) - bucket_bits);
  const bool presorted =
      shift == 0 && std::ranges::is_sorted(cand, {}, &Candidate::id);
  const auto bucket = [&](const Candidate& c) {
    return static_cast<std::size_t>((hi - heat_key(c.heat)) >> shift);
  };
  const auto num_buckets = static_cast<std::size_t>((hi - lo) >> shift) + 1;
  // start[b] is the first position of bucket b until the scatter, and the
  // position just past it after.
  std::vector<std::size_t> start(num_buckets + 1, 0);
  for (const Candidate& c : cand) ++start[bucket(c) + 1];
  for (std::size_t b = 0; b < num_buckets; ++b) start[b + 1] += start[b];
  std::vector<Candidate> order(cand.size());
  for (const Candidate& c : cand) order[start[bucket(c)]++] = c;

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

  // Walks one bucket, order[begin, end), hottest first, and returns where
  // it stopped. A bucket far larger than the cap is not sorted whole:
  // doubling batches are selected off its top (nth_element), each sorted
  // under the same total order.
  const auto walk = [&](std::size_t begin, std::size_t end) {
    std::size_t batch = end - begin;
    if (!presorted && opts.max_edges > 0 &&
        static_cast<std::size_t>(opts.max_edges) < batch / kFirstBatchPerEdge) {
      batch = kFirstBatchPerEdge * static_cast<std::size_t>(opts.max_edges);
    }
    for (; begin < end && !full(); batch *= 2) {
      const std::size_t stop = std::min(end, begin + batch);
      const auto first = order.begin() + static_cast<std::ptrdiff_t>(begin);
      const auto last = order.begin() + static_cast<std::ptrdiff_t>(stop);
      if (stop != end) {
        std::nth_element(first, last,
                         order.begin() + static_cast<std::ptrdiff_t>(end),
                         hotter);
      }
      if (!presorted) std::sort(first, last, hotter);
      for (; begin < stop && !full(); ++begin) {
        const EdgeId id = order[begin].id;
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
    return begin;
  };

  std::size_t examined = 0;
  for (std::size_t b = 0, begin = 0; b < num_buckets && !full(); ++b) {
    examined += walk(begin, start[b]) - begin;
    begin = start[b];
  }
  if (stats != nullptr) stats->examined += examined;
  return selected;
}

}  // namespace ssp
