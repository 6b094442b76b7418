#include "gates.hpp"

#include <bit>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

namespace perfbench {

namespace {

/// Counts the components left after joining `pairs` over n vertices.
class Components {
 public:
  explicit Components(ssp::Vertex n)
      : parent_(static_cast<std::size_t>(n)), count_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  void join(ssp::Vertex a, ssp::Vertex b) {
    a = root(a);
    b = root(b);
    if (a != b) {
      parent_[static_cast<std::size_t>(a)] = b;
      --count_;
    }
  }
  [[nodiscard]] ssp::Vertex count() const { return count_; }

 private:
  ssp::Vertex root(ssp::Vertex v) {
    while (parent_[static_cast<std::size_t>(v)] != v) {
      auto& p = parent_[static_cast<std::size_t>(v)];
      p = parent_[static_cast<std::size_t>(p)];
      v = p;
    }
    return v;
  }
  std::vector<ssp::Vertex> parent_;
  ssp::Vertex count_;
};

}  // namespace

std::string check_spanning_subgraph(const ssp::Graph& g,
                                    std::span<const ssp::EdgeId> edges) {
  const ssp::Vertex n = g.num_vertices();
  std::vector<char> seen(static_cast<std::size_t>(g.num_edges()), 0);
  Components comps(n);
  for (const ssp::EdgeId e : edges) {
    if (e < 0 || e >= g.num_edges()) {
      return "edge id " + std::to_string(e) + " out of range";
    }
    if (seen[static_cast<std::size_t>(e)] != 0) {
      return "edge id " + std::to_string(e) + " listed twice";
    }
    seen[static_cast<std::size_t>(e)] = 1;
    comps.join(g.edge(e).u, g.edge(e).v);
  }
  if (comps.count() != 1) {
    return "sparsifier has " + std::to_string(comps.count()) +
           " components over " + std::to_string(n) + " vertices";
  }
  return {};
}

std::string check_spanning_rows(const ssp::Graph& g,
                                std::span<const ssp::Edge> rows) {
  std::vector<ssp::EdgeId> ids;
  ids.reserve(rows.size());
  for (const ssp::Edge& r : rows) {
    if (r.u < 0 || r.u >= g.num_vertices() || r.v < 0 ||
        r.v >= g.num_vertices()) {
      return "row endpoint out of range";
    }
    const ssp::EdgeId e = g.find_edge(r.u, r.v);
    if (e == ssp::kInvalidEdge) {
      return "row " + std::to_string(r.u) + "-" + std::to_string(r.v) +
             " is not an edge of the graph";
    }
    if (g.edge(e).weight != r.weight) {
      return "row " + std::to_string(r.u) + "-" + std::to_string(r.v) +
             " carries a weight the graph does not";
    }
    ids.push_back(e);
  }
  return check_spanning_subgraph(g, ids);
}

double relative_residual(const ssp::CsrMatrix& l, std::span<const double> b,
                         std::span<const double> x) {
  const auto rp = l.row_ptr();
  const auto ci = l.col_idx();
  const auto va = l.values();
  double rr = 0.0;
  double bb = 0.0;
  for (ssp::Index i = 0; i < l.rows(); ++i) {
    double lx = 0.0;
    for (ssp::Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      lx += va[static_cast<std::size_t>(k)] *
            x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    }
    const double r = b[static_cast<std::size_t>(i)] - lx;
    rr += r * r;
    bb += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

std::vector<ssp::Edge> edge_rows(const ssp::Graph& g,
                                 std::span<const ssp::EdgeId> edges) {
  std::vector<ssp::Edge> rows;
  rows.reserve(edges.size());
  for (const ssp::EdgeId e : edges) rows.push_back(g.edge(e));
  return rows;
}

std::string compare_rows(std::span<const ssp::Edge> got,
                         std::span<const ssp::Edge> want) {
  if (got.size() != want.size()) {
    return "edge count " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].u != want[i].u || got[i].v != want[i].v ||
        std::bit_cast<std::uint64_t>(got[i].weight) !=
            std::bit_cast<std::uint64_t>(want[i].weight)) {
      std::ostringstream os;
      os << "row " << i << ": " << got[i].u << "-" << got[i].v << " w="
         << got[i].weight << " vs " << want[i].u << "-" << want[i].v
         << " w=" << want[i].weight;
      return os.str();
    }
  }
  return {};
}

}  // namespace perfbench
