// Ablation studies for the pipeline's design choices:
//   A. Backbone: AKPW low-stretch tree vs max-weight Kruskal vs Dijkstra
//      SPT (total stretch and downstream sparsifier size/time).
//   B. Embedding: power steps t and random-vector count r (ranking
//      stability and final edge budget).
//   C. Similarity policy: none / node-disjoint / bounded (edges and rounds
//      needed to reach the target).
//   D. Edge rescaling extension: two-sided sigma^2 before/after.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench_common.hpp"
#include "core/embedding.hpp"
#include "core/options_io.hpp"
#include "core/rescale.hpp"
#include "core/sparsifier.hpp"
#include "eigen/operators.hpp"
#include "graph/laplacian.hpp"
#include "tree/akpw.hpp"
#include "tree/dijkstra_tree.hpp"
#include "tree/kruskal.hpp"
#include "tree/stretch.hpp"
#include "tree/tree_solver.hpp"
#include "util/timer.hpp"

namespace {

using namespace ssp;
using bench::dim;
using bench::Json;

bench::Report& report() {
  static bench::Report r("ablations");
  return r;
}

void ablation_backbone() {
  bench::print_banner("Ablation A — backbone spanning tree");
  std::printf("%-12s %-10s %14s %10s %8s %8s\n", "graph", "backbone",
              "total stretch", "|Es|", "rounds", "time(s)");
  bench::print_rule(70);

  struct Item {
    const char* gname;
    Graph graph;
  };
  std::vector<Item> graphs;
  graphs.push_back({"grid", bench::g3_circuit_proxy(dim(120, 500), 601)});
  graphs.push_back({"dblp", bench::dblp_proxy(dim(15000, 100000), 602)});

  for (Item& item : graphs) {
    const Graph& g = item.graph;
    for (BackboneKind kind : {BackboneKind::kAkpw, BackboneKind::kMaxWeight,
                              BackboneKind::kShortestPath}) {
      const char* bname = to_string(kind);
      Rng rng(7);
      const SpanningTree tree = [&] {
        switch (kind) {
          case BackboneKind::kMaxWeight:
            return max_weight_spanning_tree(g);
          case BackboneKind::kShortestPath:
            return shortest_path_tree_from_center(g);
          default:
            return akpw_low_stretch_tree(g, rng);
        }
      }();
      const StretchReport st = compute_stretch(tree);

      SparsifyOptions opts;
      opts.sigma2 = 100.0;
      opts.backbone = kind;
      const WallTimer t;
      const SparsifyResult res = sparsify(g, opts);
      std::printf("%-12s %-10s %14.3e %10lld %8zu %7.2fs\n", item.gname,
                  bname, st.total_all,
                  static_cast<long long>(res.num_edges()),
                  res.rounds.size(), t.seconds());
      report().section("backbone").push(
          Json::object()
              .set("graph", item.gname)
              .set("backbone", bname)
              .set("total_stretch", st.total_all)
              .set("edges", static_cast<long long>(res.num_edges()))
              .set("rounds", res.rounds.size())
              .set("seconds", t.seconds()));
    }
  }
}

void ablation_embedding() {
  bench::print_banner(
      "Ablation B — embedding parameters t (power steps) and r (vectors)");
  const Graph g = bench::g3_circuit_proxy(dim(120, 400), 603);
  const SpanningTree tree = max_weight_spanning_tree(g);
  const TreeSolver solver(tree);
  const LinOp solve_p = make_tree_solver_op(solver);
  std::vector<char> in_p(static_cast<std::size_t>(g.num_edges()), 0);
  for (EdgeId e : tree.tree_edge_ids()) in_p[static_cast<std::size_t>(e)] = 1;

  // Reference ranking: t=3, r=32 (expensive, accurate).
  Rng ref_rng(11);
  const OffTreeEmbedding ref = compute_offtree_heat(
      g, in_p, solve_p, {.power_steps = 3, .num_vectors = 32}, ref_rng);
  auto top_set = [](const OffTreeEmbedding& emb, std::size_t k) {
    std::vector<std::size_t> idx(emb.heat.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k),
                      idx.end(), [&](std::size_t a, std::size_t b) {
                        return emb.heat[a] > emb.heat[b];
                      });
    std::set<EdgeId> s;
    for (std::size_t i = 0; i < k; ++i) {
      s.insert(emb.offtree_edges[idx[i]]);
    }
    return s;
  };
  const std::size_t k = std::min<std::size_t>(512, ref.heat.size());
  const auto ref_top = top_set(ref, k);

  std::printf("%-6s %-6s %16s %10s\n", "t", "r", "top-512 overlap",
              "time(ms)");
  bench::print_rule(50);
  for (int t = 1; t <= 3; ++t) {
    for (Index r : {4, 8, 16}) {
      Rng rng(23);
      const WallTimer timer;
      const OffTreeEmbedding emb = compute_offtree_heat(
          g, in_p, solve_p, {.power_steps = t, .num_vectors = r}, rng);
      const auto top = top_set(emb, k);
      std::size_t overlap = 0;
      for (EdgeId e : top) overlap += ref_top.count(e);
      std::printf("%-6d %-6lld %15.1f%% %9.1f\n", t,
                  static_cast<long long>(r),
                  100.0 * static_cast<double>(overlap) /
                      static_cast<double>(k),
                  timer.milliseconds());
      report().section("embedding").push(
          Json::object()
              .set("power_steps", t)
              .set("num_vectors", static_cast<long long>(r))
              .set("top512_overlap_pct",
                   100.0 * static_cast<double>(overlap) /
                       static_cast<double>(k))
              .set("milliseconds", timer.milliseconds()));
    }
  }
}

void ablation_similarity() {
  bench::print_banner(
      "Ablation C — similarity (dissimilar-edge) policy of densify step 6");
  const Graph g = bench::thermal2_proxy(dim(140, 400), 604);
  std::printf("%-14s %10s %8s %12s %10s\n", "policy", "|Es|", "rounds",
              "sigma2_est", "time(s)");
  bench::print_rule(60);
  struct P {
    const char* name;
    SimilarityPolicy policy;
    Index cap;
  };
  for (const P& p : {P{"none", SimilarityPolicy::kNone, 1},
                     P{"node-disjoint", SimilarityPolicy::kNodeDisjoint, 1},
                     P{"bounded(2)", SimilarityPolicy::kBounded, 2},
                     P{"bounded(4)", SimilarityPolicy::kBounded, 4}}) {
    SparsifyOptions opts;
    opts.sigma2 = 80.0;
    opts.similarity = p.policy;
    opts.node_cap = p.cap;
    const WallTimer t;
    const SparsifyResult res = sparsify(g, opts);
    std::printf("%-14s %10lld %8zu %12.1f %9.2fs\n", p.name,
                static_cast<long long>(res.num_edges()), res.rounds.size(),
                res.sigma2_estimate, t.seconds());
    report().section("similarity").push(
        Json::object()
            .set("policy", p.name)
            .set("edges", static_cast<long long>(res.num_edges()))
            .set("rounds", res.rounds.size())
            .set("sigma2_estimate", res.sigma2_estimate)
            .set("seconds", t.seconds()));
  }
}

void ablation_rescale() {
  bench::print_banner(
      "Ablation D — scalar edge re-scaling extension (paper §3.1 pointer)");
  const Graph g = bench::g3_circuit_proxy(dim(120, 400), 607);
  const SparsifyResult res = sparsify(g, {.sigma2 = 100.0});
  const RescaleResult rr = rescale_sparsifier(g, res);
  std::printf("two-sided sigma^2 before rescale: %10.2f\n", rr.sigma2_before);
  std::printf("two-sided sigma^2 after rescale:  %10.2f  (scale factor "
              "%.4f)\n",
              rr.sigma2_after, rr.scale);
  report().section("rescale").push(Json::object()
                                       .set("sigma2_before", rr.sigma2_before)
                                       .set("sigma2_after", rr.sigma2_after)
                                       .set("scale", rr.scale));
}

void BM_AkpwTree(benchmark::State& state) {
  const Graph g = bench::g3_circuit_proxy(static_cast<Vertex>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(akpw_low_stretch_tree(g, rng));
  }
}
BENCHMARK(BM_AkpwTree)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_KruskalTree(benchmark::State& state) {
  const Graph g = bench::g3_circuit_proxy(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_weight_spanning_tree(g));
  }
}
BENCHMARK(BM_KruskalTree)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ablation_backbone();
  ablation_embedding();
  ablation_similarity();
  ablation_rescale();
  report().write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
