#include "solver/ordering.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/assert.hpp"

namespace ssp {

namespace {

/// BFS from `start` over the symmetric pattern; returns (order, last level
/// start) where order is the BFS visit sequence restricted to the start's
/// component.
std::pair<std::vector<Vertex>, std::size_t> bfs_levels(const CsrMatrix& a,
                                                       Vertex start) {
  const Index n = a.rows();
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(start);
  visited[static_cast<std::size_t>(start)] = 1;
  std::size_t level_begin = 0;
  std::size_t last_level_begin = 0;
  while (level_begin < order.size()) {
    const std::size_t level_end = order.size();
    last_level_begin = level_begin;
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const Vertex v = order[i];
      for (Vertex u : a.row_cols(v)) {
        if (u != v && visited[static_cast<std::size_t>(u)] == 0) {
          visited[static_cast<std::size_t>(u)] = 1;
          order.push_back(u);
        }
      }
    }
    if (order.size() == level_end) break;
    level_begin = level_end;
  }
  return {std::move(order), last_level_begin};
}

}  // namespace

std::vector<Vertex> natural_ordering(Index n) {
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Vertex{0});
  return order;
}

std::vector<Vertex> rcm_ordering(const CsrMatrix& a) {
  SSP_REQUIRE(a.rows() == a.cols(), "rcm: matrix not square");
  const Index n = a.rows();
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> result;
  result.reserve(static_cast<std::size_t>(n));

  auto degree = [&](Vertex v) {
    return static_cast<Index>(a.row_cols(v).size());
  };

  for (Vertex seed = 0; seed < n; ++seed) {
    if (done[static_cast<std::size_t>(seed)] != 0) continue;
    // Pseudo-peripheral start: double BFS from the component's seed.
    auto [first_pass, last_begin] = bfs_levels(a, seed);
    Vertex start = first_pass[last_begin];
    for (std::size_t i = last_begin; i < first_pass.size(); ++i) {
      if (degree(first_pass[i]) < degree(start)) start = first_pass[i];
    }

    // Cuthill–McKee: BFS, expanding neighbors in ascending-degree order.
    std::vector<Vertex> cm;
    cm.reserve(first_pass.size());
    cm.push_back(start);
    done[static_cast<std::size_t>(start)] = 1;
    std::vector<Vertex> nbrs;
    for (std::size_t head = 0; head < cm.size(); ++head) {
      nbrs.clear();
      for (Vertex u : a.row_cols(cm[head])) {
        if (u != cm[head] && done[static_cast<std::size_t>(u)] == 0) {
          done[static_cast<std::size_t>(u)] = 1;
          nbrs.push_back(u);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](Vertex x, Vertex y) {
        const Index dx = degree(x);
        const Index dy = degree(y);
        return dx != dy ? dx < dy : x < y;
      });
      cm.insert(cm.end(), nbrs.begin(), nbrs.end());
    }
    // Reverse within the component.
    result.insert(result.end(), cm.rbegin(), cm.rend());
  }
  SSP_ASSERT(static_cast<Index>(result.size()) == n, "rcm: lost vertices");
  return result;
}

bool min_degree_ordering(std::span<const Index> row_ptr,
                         std::span<const Vertex> col_idx,
                         MinDegreeWorkspace& ws, std::vector<Vertex>& order,
                         Index max_factor_nnz) {
  SSP_REQUIRE(!row_ptr.empty(), "min_degree: row_ptr needs n+1 entries");
  const auto n = static_cast<std::size_t>(row_ptr.size() - 1);
  enum : char { kVariable, kElement, kAbsorbed };
  const auto at = [](auto& vec, auto i) -> auto& {
    return vec[static_cast<std::size_t>(i)];
  };

  // Quotient graph. Each vertex owns a segment of its original degree's
  // capacity holding its adjacent elements first, then its adjacent
  // variables. Eliminating v turns it into an element whose variable list
  // L_v (in elem_pool) is v's fill clique; the elements adjacent to v are
  // absorbed into it. Every variable i of L_v drops at least one segment
  // entry (v itself, or an absorbed element) for the one it gains (v), so
  // the segments never overflow.
  ws.seg_begin.assign(n + 1, 0);
  ws.lists.clear();
  for (std::size_t r = 0; r < n; ++r) {
    for (auto p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const Vertex c = col_idx[static_cast<std::size_t>(p)];
      if (static_cast<std::size_t>(c) != r) ws.lists.push_back(c);
    }
    ws.seg_begin[r + 1] = static_cast<Index>(ws.lists.size());
  }
  ws.num_elems.assign(n, 0);
  ws.num_vars.resize(n);
  ws.degree.resize(n);
  ws.outside.resize(n);
  ws.elem_begin.assign(n, 0);
  ws.elem_len.assign(n, 0);
  ws.elem_pool.clear();
  ws.state.assign(n, kVariable);
  ws.mark.assign(n, 0);
  Index factor_nnz = 0;
  order.clear();
  order.reserve(n);

  // Degree buckets: doubly linked lists of the variables of each degree
  // (linked at the head); no bucket below `min_deg` is nonempty.
  ws.head.assign(n, kInvalidVertex);
  ws.next.resize(n);
  ws.prev.resize(n);
  Index min_deg = 0;
  const auto link = [&](Vertex i) {
    const Index d = at(ws.degree, i);
    at(ws.next, i) = at(ws.head, d);
    at(ws.prev, i) = kInvalidVertex;
    if (at(ws.next, i) != kInvalidVertex) at(ws.prev, at(ws.next, i)) = i;
    at(ws.head, d) = i;
    min_deg = std::min(min_deg, d);
  };
  const auto unlink = [&](Vertex i) {
    const Vertex nx = at(ws.next, i);
    const Vertex pv = at(ws.prev, i);
    if (nx != kInvalidVertex) at(ws.prev, nx) = pv;
    (pv != kInvalidVertex ? at(ws.next, pv) : at(ws.head, at(ws.degree, i))) =
        nx;
  };
  for (std::size_t v = n; v-- > 0;) {  // smallest id at each bucket's head
    ws.degree[v] = ws.num_vars[v] = ws.seg_begin[v + 1] - ws.seg_begin[v];
    link(static_cast<Vertex>(v));
  }

  while (order.size() < n) {
    while (at(ws.head, min_deg) == kInvalidVertex) ++min_deg;
    const Vertex v = at(ws.head, min_deg);
    unlink(v);
    order.push_back(v);
    at(ws.state, v) = kElement;

    // L_v = (adjacent variables ∪ variables of adjacent elements) \ {v}
    // is v's exact adjacency in the elimination graph (approximate degrees
    // only choose v), so v's factor column holds L_v and the diagonal.
    // Adding i to L_v also counts |L_e \ L_v| down for the elements e of
    // i (a live element holds only variables: eliminating one absorbs it);
    // at zero, L_e ⊆ L_v and element v absorbs e.
    const auto in_lv = static_cast<std::int64_t>(order.size());  // stamp
    const Index lv_begin = static_cast<Index>(ws.elem_pool.size());
    const Index seg = at(ws.seg_begin, v);
    const Index v_elems = at(ws.num_elems, v);
    const Index v_end = seg + v_elems + at(ws.num_vars, v);
    for (Index k = seg; k < seg + v_elems; ++k) {
      at(ws.state, at(ws.lists, k)) = kAbsorbed;
    }
    const auto add_to_lv = [&](Vertex i) {
      if (at(ws.state, i) != kVariable || at(ws.mark, i) == in_lv) return;
      at(ws.mark, i) = in_lv;
      ws.elem_pool.push_back(i);
      const Index is = at(ws.seg_begin, i);
      for (Index k = is; k < is + at(ws.num_elems, i); ++k) {
        const Vertex e = at(ws.lists, k);
        if (at(ws.state, e) != kElement) continue;
        if (at(ws.mark, e) != in_lv) {
          at(ws.mark, e) = in_lv;
          at(ws.outside, e) = at(ws.elem_len, e);
        }
        if (--at(ws.outside, e) == 0) at(ws.state, e) = kAbsorbed;
      }
    };
    for (Index k = seg; k < seg + v_elems; ++k) {
      const Vertex e = at(ws.lists, k);
      const Index eb = at(ws.elem_begin, e);
      for (Index p = eb; p < eb + at(ws.elem_len, e); ++p) {
        add_to_lv(at(ws.elem_pool, p));
      }
    }
    for (Index k = seg + v_elems; k < v_end; ++k) add_to_lv(at(ws.lists, k));
    const Index lv_len = static_cast<Index>(ws.elem_pool.size()) - lv_begin;
    factor_nnz += lv_len + 1;
    if (factor_nnz > max_factor_nnz) return false;
    at(ws.elem_begin, v) = lv_begin;
    at(ws.elem_len, v) = lv_len;

    // AMD degree bound of every i in L_v: |L_v \ {i}| plus what i reaches
    // outside L_v through its other elements and directly, capped by the
    // variables left and by i's old bound grown by L_v. Absorbed elements
    // and direct neighbors in L_v leave i's lists, and v joins them.
    const Index n_left = static_cast<Index>(n - order.size());
    for (Index t = lv_begin; t < lv_begin + lv_len; ++t) {
      const Vertex i = at(ws.elem_pool, t);
      const Index is = at(ws.seg_begin, i);
      const Index vars_begin = is + at(ws.num_elems, i);
      Index reach = 0;
      Index out = is;
      for (Index k = is; k < vars_begin; ++k) {
        const Vertex e = at(ws.lists, k);
        if (at(ws.state, e) != kElement) continue;
        reach += at(ws.outside, e);
        at(ws.lists, out++) = e;
      }
      const Index elems_end = out;
      for (Index k = vars_begin; k < vars_begin + at(ws.num_vars, i); ++k) {
        const Vertex j = at(ws.lists, k);
        if (at(ws.state, j) == kVariable && at(ws.mark, j) != in_lv) {
          at(ws.lists, out++) = j;
        }
      }
      SSP_ASSERT(out < at(ws.seg_begin, i + 1),
                 "min_degree: quotient-graph segment overflow");
      // v takes the first variable slot, whose variable moves to the end.
      at(ws.lists, out) = at(ws.lists, elems_end);
      at(ws.lists, elems_end) = v;
      at(ws.num_elems, i) = elems_end - is + 1;
      at(ws.num_vars, i) = out - elems_end;
      reach += out - elems_end;
      unlink(i);
      at(ws.degree, i) = std::min(
          {n_left - 1, at(ws.degree, i) + lv_len - 1, lv_len - 1 + reach});
      link(i);
    }
  }
  return true;
}

std::vector<Vertex> min_degree_ordering(const CsrMatrix& a) {
  SSP_REQUIRE(a.rows() == a.cols(), "min_degree: matrix not square");
  MinDegreeWorkspace ws;
  std::vector<Vertex> order;
  (void)min_degree_ordering(a.row_ptr(), a.col_idx(), ws, order);
  return order;
}

CsrMatrix permute_symmetric(const CsrMatrix& a,
                            std::span<const Vertex> order) {
  SSP_REQUIRE(a.rows() == a.cols(), "permute_symmetric: matrix not square");
  const Index n = a.rows();
  SSP_REQUIRE(static_cast<Index>(order.size()) == n,
              "permute_symmetric: order size mismatch");
  std::vector<Vertex> inverse(static_cast<std::size_t>(n), kInvalidVertex);
  for (Index i = 0; i < n; ++i) {
    const Vertex old = order[static_cast<std::size_t>(i)];
    SSP_REQUIRE(old >= 0 && old < n && inverse[static_cast<std::size_t>(old)] ==
                                           kInvalidVertex,
                "permute_symmetric: not a permutation");
    inverse[static_cast<std::size_t>(old)] = static_cast<Vertex>(i);
  }
  std::vector<Triplet> ts;
  ts.reserve(static_cast<std::size_t>(a.nnz()));
  for (Index r = 0; r < n; ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      ts.push_back({inverse[static_cast<std::size_t>(r)],
                    inverse[static_cast<std::size_t>(cols[k])], vals[k]});
    }
  }
  return CsrMatrix::from_triplets(n, n, ts);
}

}  // namespace ssp
