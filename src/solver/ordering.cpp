#include "solver/ordering.hpp"

#include <algorithm>
#include <numeric>
#include <functional>

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
  constexpr char kVariable = 0;
  constexpr char kElement = 1;
  constexpr char kAbsorbed = 2;

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
  ws.heap.clear();
  for (std::size_t v = 0; v < n; ++v) {
    ws.num_vars[v] = ws.seg_begin[v + 1] - ws.seg_begin[v];
    ws.degree[v] = ws.num_vars[v];
    ws.heap.emplace_back(ws.degree[v], static_cast<Vertex>(v));
  }
  std::make_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
  ws.elem_begin.assign(n, 0);
  ws.elem_len.assign(n, 0);
  ws.elem_pool.clear();
  ws.state.assign(n, kVariable);
  ws.mark.assign(n, 0);
  std::int64_t stamp = 0;
  Index factor_nnz = 0;
  order.clear();
  order.reserve(n);

  const auto at = [](auto& vec, auto i) -> auto& {
    return vec[static_cast<std::size_t>(i)];
  };

  while (order.size() < n) {
    // Smallest (degree, id) among the variables. Every degree change
    // pushes a fresh entry, so entries whose degree no longer matches are
    // stale and skipped.
    std::pop_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
    const auto [deg, v] = ws.heap.back();
    ws.heap.pop_back();
    if (at(ws.state, v) != kVariable || deg != at(ws.degree, v)) continue;
    order.push_back(v);
    at(ws.state, v) = kElement;

    // L_v = (adjacent variables ∪ variables of adjacent elements) \ {v}.
    const std::int64_t in_lv = ++stamp;
    const Index lv_begin = static_cast<Index>(ws.elem_pool.size());
    const Index seg = at(ws.seg_begin, v);
    const Index v_elems = at(ws.num_elems, v);
    const Index v_end = seg + v_elems + at(ws.num_vars, v);
    const auto add_to_lv = [&](Vertex j) {
      if (at(ws.state, j) == kVariable && at(ws.mark, j) != in_lv) {
        at(ws.mark, j) = in_lv;
        ws.elem_pool.push_back(j);
      }
    };
    for (Index k = seg; k < seg + v_elems; ++k) {
      const Vertex e = at(ws.lists, k);
      const Index eb = at(ws.elem_begin, e);
      for (Index p = eb; p < eb + at(ws.elem_len, e); ++p) {
        add_to_lv(at(ws.elem_pool, p));
      }
      at(ws.state, e) = kAbsorbed;
    }
    for (Index k = seg + v_elems; k < v_end; ++k) add_to_lv(at(ws.lists, k));
    const Index lv_len = static_cast<Index>(ws.elem_pool.size()) - lv_begin;
    // v's degree is exact, so its factor column holds L_v and the diagonal.
    factor_nnz += lv_len + 1;
    if (factor_nnz > max_factor_nnz) return false;
    at(ws.elem_begin, v) = lv_begin;
    at(ws.elem_len, v) = lv_len;
    at(ws.num_elems, v) = 0;
    at(ws.num_vars, v) = 0;

    // Exact degree of every i in L_v: |L_v \ {i}| plus the variables
    // outside L_v that i reaches through its other elements or directly.
    for (Index t = lv_begin; t < lv_begin + lv_len; ++t) {
      const Vertex i = at(ws.elem_pool, t);
      const std::int64_t seen = ++stamp;
      Index degree = lv_len - 1;
      const auto count = [&](Vertex j) {
        const std::int64_t m = at(ws.mark, j);
        if (m != in_lv && m != seen) {  // outside L_v, not yet counted
          at(ws.mark, j) = seen;
          ++degree;
        }
      };
      const Index is = at(ws.seg_begin, i);
      const Index i_elems = at(ws.num_elems, i);
      const Index i_vars = at(ws.num_vars, i);
      Index out = is;
      for (Index k = is; k < is + i_elems; ++k) {
        const Vertex e = at(ws.lists, k);
        if (at(ws.state, e) != kElement) continue;  // absorbed
        // Count e's variables, compacting eliminated ones out of L_e.
        const Index eb = at(ws.elem_begin, e);
        Index keep = eb;
        Index outside = 0;
        for (Index p = eb; p < eb + at(ws.elem_len, e); ++p) {
          const Vertex j = at(ws.elem_pool, p);
          if (at(ws.state, j) != kVariable) continue;
          at(ws.elem_pool, keep++) = j;
          if (at(ws.mark, j) != in_lv) ++outside;
          count(j);
        }
        at(ws.elem_len, e) = keep - eb;
        // L_e ⊆ L_v: element v now covers e for all of e's variables (each
        // is in L_v and gets v), so e is absorbed; degrees are unchanged.
        if (outside == 0) {
          at(ws.state, e) = kAbsorbed;
        } else {
          at(ws.lists, out++) = e;
        }
      }
      // Direct neighbors inside L_v are now reached through element v.
      ws.kept.clear();
      for (Index k = is + i_elems; k < is + i_elems + i_vars; ++k) {
        const Vertex j = at(ws.lists, k);
        if (at(ws.state, j) != kVariable || at(ws.mark, j) == in_lv) continue;
        ws.kept.push_back(j);
        count(j);
      }
      at(ws.lists, out++) = v;
      at(ws.num_elems, i) = out - is;
      SSP_ASSERT(out + static_cast<Index>(ws.kept.size()) <=
                     at(ws.seg_begin, i + 1),
                 "min_degree: quotient-graph segment overflow");
      std::copy(ws.kept.begin(), ws.kept.end(),
                ws.lists.begin() + static_cast<std::ptrdiff_t>(out));
      at(ws.num_vars, i) = static_cast<Index>(ws.kept.size());
      if (degree != at(ws.degree, i)) {
        at(ws.degree, i) = degree;
        ws.heap.emplace_back(degree, i);
        std::push_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
      }
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
