// ssp_sparsify — sparsify a graph to a target σ² level.
//
//   ssp_sparsify --in graph.mtx --out sparsifier.mtx --sigma2 100
//   ssp_sparsify --in graph.mtx --partitions 8 --cut-policy filter
//   ssp_sparsify --in graph.mtx --update-file updates.journal --out p.mtx
//   ssp_sparsify --in graph.sspb --memory-budget-mb 256 --out p.mtx
//
// `--in` accepts a SuiteSparse-style .mtx (converted per the paper's §4
// rule), a converted `.sspb` binary (ssp_convert; mmap-backed), or a
// `gen:<family>` generator spec. The graph runs through the staged
// ssp::Sparsifier engine — or, with a scale flag, through the scale layer
// (scale/hierarchical_sparsifier.hpp): --partitions k splits it into k
// blocks, --memory-budget-mb into leaves that fit the budget (a `.sspb`
// input is never materialized whole); one engine per component of each
// block or leaf, bit-identical for every --threads value, with the
// inter-block edges kept whole or filtered (--cut-policy keep-all|filter),
// so the printed worst block/cut estimate bounds the global σ² — or, with
// --update-file, through the dynamic update layer, replaying an
// insert/delete/reweight journal batch by batch and re-sparsifying
// incrementally after each commit. Writes the
// (final) sparsifier back as a symmetric .mtx and prints a
// machine-greppable stats block. --progress prints one line per round
// (whole graph, live), per batch (dynamic, live) or per block / leaf / cut
// pass (scale routes, after the run). Stage wall times are spans in the
// --trace file, the one record of them.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "cli.hpp"
#include "core/options_io.hpp"
#include "core/rescale.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "dynamic/update_journal.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph_source.hpp"
#include "graph/mtx_io.hpp"
#include "la/kernels/kernels.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "scale/quality.hpp"
#include "storage/mapped_graph.hpp"

namespace {

/// Streams one line per densification round as it completes.
class ProgressPrinter : public ssp::StageObserver {
 public:
  bool on_round(const ssp::DensifyRound& r) override {
    std::printf("round %3lld  sigma2 %10.2f  theta %8.3e  added %6lld\n",
                static_cast<long long>(r.round), r.sigma2_estimate, r.theta,
                static_cast<long long>(r.edges_added));
    return true;
  }
};

/// One --progress line per block, leaf or cut pass of a scale-layer run.
void print_block(const ssp::BlockStats& b) {
  if (b.block == ssp::kCutBlock) {
    std::printf("  cut    |V| %7d |E| %8lld kept %8lld  sigma2 %8.2f  "
                "%.3fs\n",
                b.vertices, static_cast<long long>(b.edges),
                static_cast<long long>(b.kept_edges), b.sigma2_estimate,
                b.seconds);
  } else {
    std::printf("  block %2lld |V| %7d |E| %8lld kept %8lld  sigma2 %8.2f"
                "  %.3fs%s\n",
                static_cast<long long>(b.block), b.vertices,
                static_cast<long long>(b.edges),
                static_cast<long long>(b.kept_edges), b.sigma2_estimate,
                b.seconds, b.reached_target ? "" : "  (NOT reached)");
  }
}

int run_whole_graph(const ssp::cli::ArgParser& args, const ssp::Graph& g,
                    const ssp::SparsifyOptions& opts) {
  ssp::Sparsifier engine(g, opts);
  ProgressPrinter progress;
  if (args.get_bool("progress", false)) engine.set_observer(&progress);
  engine.run();
  const ssp::SparsifyResult& res = engine.result();

  std::printf("edges: %lld  density: %.4f x |V|\n",
              static_cast<long long>(res.num_edges()),
              static_cast<double>(res.num_edges()) / g.num_vertices());
  std::printf("sigma2: target %.3f, estimate %.3f (%s)\n", opts.sigma2,
              res.sigma2_estimate,
              res.reached_target ? "reached" : "NOT reached");
  std::printf("lambda_min %.6f lambda_max %.3f rounds %zu time %.3fs\n",
              res.lambda_min, res.lambda_max, res.rounds.size(),
              res.total_seconds);

  if (args.has("out")) {
    const ssp::Graph p = res.extract(g);
    ssp::save_graph_mtx(args.get("out", ""), p);
    std::printf("wrote %s\n", args.get("out", "").c_str());
  }
  return res.reached_target ? 0 : 2;
}

/// Materializes the sparsifier `edges` of a view as a finalized heap
/// graph in the listed order — the view-side twin of
/// `Graph::edge_subgraph`, so the written .mtx is byte-identical between
/// the heap and mmap paths for the same edge list.
ssp::Graph extract_from_view(const ssp::GraphView& v,
                             const std::vector<ssp::EdgeId>& edges) {
  ssp::Graph p(v.num_vertices());
  for (const ssp::EdgeId e : edges) {
    const ssp::Edge ed = v.edge(e);
    p.add_edge(ed.u, ed.v, ed.weight);
  }
  p.finalize();
  return p;
}

/// Scale-layer route (partitioned or out-of-core): a `.sspb` input under
/// a memory budget stays mmap'd (pages released between waves); any other
/// source loads once onto the heap. The global quality estimate and the
/// rescale stage run here, on the stitched sparsifier of a heap graph.
int run_scale(const ssp::cli::ArgParser& args, const std::string& in_path,
              const ssp::SparsifyOptions& base) {
  const ssp::HierarchicalOptions opts =
      ssp::cli::scale_options_from(args, base);
  std::optional<ssp::storage::MappedGraph> mapped;
  std::optional<ssp::Graph> heap;
  if (opts.memory_budget_bytes > 0 &&
      ssp::classify_graph_source(in_path) == ssp::GraphSourceKind::kSspb) {
    mapped.emplace(in_path);
    std::printf("mapped %s: |V| = %d, |E| = %lld (%llu bytes)\n",
                in_path.c_str(), mapped->num_vertices(),
                static_cast<long long>(mapped->num_edges()),
                static_cast<unsigned long long>(mapped->file_bytes()));
  } else {
    heap.emplace(ssp::load_graph_source(in_path));
    std::printf("loaded %s: |V| = %d, |E| = %lld\n", in_path.c_str(),
                heap->num_vertices(),
                static_cast<long long>(heap->num_edges()));
  }
  const ssp::GraphView v = mapped ? mapped->view() : ssp::GraphView(*heap);
  const ssp::HierarchicalResult res =
      mapped ? ssp::hierarchical_sparsify(*mapped, opts)
             : ssp::hierarchical_sparsify(*heap, opts);

  if (args.get_bool("progress", false)) {
    for (const ssp::BlockStats& b : res.leaf_stats) print_block(b);
    if (res.cut_stats.has_value()) print_block(*res.cut_stats);
  }
  std::printf("edges: %lld  density: %.4f x |V|\n",
              static_cast<long long>(res.num_edges()),
              static_cast<double>(res.num_edges()) / v.num_vertices());
  std::printf("leaves: %lld (depth %lld%s)  cut policy %s, cut edges kept "
              "%lld / %lld\n",
              static_cast<long long>(res.leaves),
              static_cast<long long>(res.depth),
              res.whole_graph ? ", whole-graph" : "",
              ssp::to_string(opts.cut_policy),
              static_cast<long long>(res.cut_edges_kept),
              static_cast<long long>(res.cut_edges));
  // Units and the cut pass sparsify disjoint edge sets of G, so their
  // worst estimate bounds the global σ² (scale/hierarchical_sparsifier.hpp).
  bool reached = true;
  double worst_sigma2 = 0.0;
  auto fold = [&](const ssp::BlockStats& b) {
    reached = reached && b.reached_target;
    worst_sigma2 = std::max(worst_sigma2, b.sigma2_estimate);
  };
  for (const ssp::BlockStats& b : res.leaf_stats) fold(b);
  if (res.cut_stats.has_value()) fold(*res.cut_stats);
  std::printf("leaf sigma2: target %.3f, worst estimate %.3f (%s)\n",
              opts.block.sigma2, worst_sigma2,
              reached ? "reached" : "NOT reached");

  // The pencil spectrum (and the spanning-tree preconditioner behind the
  // λ_max estimate) needs one component; a disconnected input reports no
  // global quality. The route check keeps these flags off mmap'd inputs.
  std::optional<ssp::Graph> rescaled;
  const bool rescale = args.get_bool("rescale", false);
  if ((rescale || args.get_bool("estimate-quality", false)) &&
      ssp::is_connected(*heap)) {
    ssp::QualityOptions qopts;
    qopts.seed = base.seed;
    const ssp::SparsifierQuality q = ssp::estimate_sparsifier_quality(
        *heap, heap->edge_subgraph(res.edges), qopts);
    std::printf("global: lambda_min %.6f lambda_max %.3f sigma2 %.3f\n",
                q.lambda_min, q.lambda_max, q.sigma2);
    if (rescale) {
      ssp::SparsifyResult synth;
      synth.edges = res.edges;
      synth.lambda_min = q.lambda_min;
      synth.lambda_max = q.lambda_max;
      synth.sigma2_estimate = q.sigma2;
      ssp::RescaleResult r = ssp::rescale_sparsifier(*heap, synth);
      std::printf("rescale: scale %.6e, two-sided sigma2 %.3f -> %.3f\n",
                  r.scale, r.sigma2_before, r.sigma2_after);
      rescaled = std::move(r.sparsifier);
    }
  }
  std::printf("time %.3fs\n", res.total_seconds);

  if (args.has("out")) {
    const ssp::Graph p = rescaled ? std::move(*rescaled)
                                  : extract_from_view(v, res.edges);
    ssp::save_graph_mtx(args.get("out", ""), p);
    std::printf("wrote %s\n", args.get("out", "").c_str());
  }
  return reached ? 0 : 2;
}

/// Streams one line per applied batch.
class DynamicProgressPrinter : public ssp::DynamicObserver {
 public:
  void on_update(const ssp::UpdateStats& s) override {
    std::printf("batch %3lld  +%lld -%lld ~%lld  |Es| %lld  sigma2 %8.2f%s  "
                "%.3fs\n",
                static_cast<long long>(s.batch),
                static_cast<long long>(s.inserted),
                static_cast<long long>(s.removed),
                static_cast<long long>(s.reweighted),
                static_cast<long long>(s.sparsifier_edges),
                s.sigma2_estimate, s.reached_target ? "" : " (NOT reached)",
                s.seconds);
  }
};

int run_dynamic(const ssp::cli::ArgParser& args, const ssp::Graph& g,
                const ssp::SparsifyOptions& base) {
  // The dynamic layer pins the canonical kruskal (max-weight) backbone —
  // the one a kept edge order reproduces bit for bit across batches — so
  // an explicit --backbone would be silently overridden; reject it.
  SSP_REQUIRE(!args.has("backbone"),
              "--update-file pins the canonical kruskal backbone; "
              "--backbone cannot be combined with it");
  const auto journal = ssp::load_update_journal(args.require("update-file"));
  DynamicProgressPrinter progress;
  // Observer attached at construction so the initial build (batch 0)
  // streams its telemetry too.
  ssp::DynamicSparsifier dyn(g, ssp::cli::dynamic_options_from(args, base),
                             args.get_bool("progress", false) ? &progress
                                                              : nullptr);
  for (const ssp::JournalBatch& batch : journal) {
    dyn.apply(ssp::resolve_journal_batch(dyn.graph(), batch));
  }
  const ssp::SparsifyResult& res = dyn.result();

  std::printf("batches: %lld (journal %zu)  graph edges: %lld\n",
              static_cast<long long>(dyn.batches_applied()), journal.size(),
              static_cast<long long>(dyn.graph().num_edges()));
  std::printf("edges: %lld  density: %.4f x |V|\n",
              static_cast<long long>(res.num_edges()),
              static_cast<double>(res.num_edges()) / g.num_vertices());
  std::printf("sigma2: target %.3f, estimate %.3f (%s)\n", base.sigma2,
              res.sigma2_estimate,
              res.reached_target ? "reached" : "NOT reached");
  std::printf("time %.3fs\n", dyn.total_seconds());

  if (args.has("out")) {
    const ssp::Graph p = res.extract(dyn.graph());
    ssp::save_graph_mtx(args.get("out", ""), p);
    std::printf("wrote %s\n", args.get("out", "").c_str());
  }
  return res.reached_target ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  ssp::cli::ArgParser args(
      "ssp_sparsify",
      "similarity-aware spectral sparsification of a Matrix Market graph");
  args.option("in", ssp::cli::kGraphSourceHelp)
      .option("out", "output .mtx for the sparsifier (optional)")
      .flag("progress",
            "print one line per round, batch, or block/leaf/cut pass; "
            "stage times are spans in the --trace file")
      .flag("kernels", "print compiled/supported kernel backends and exit");
  ssp::cli::add_sparsify_options(args);
  ssp::cli::add_scale_options(args);
  ssp::cli::add_dynamic_options(args);
  ssp::cli::add_trace_option(args);
  return ssp::cli::run_tool(args, argc, argv, [&args] {
    if (args.get_bool("kernels", false)) {
      // Capability probe for scripts (tests/kernel_parity.sh): one line
      // per compiled backend, "+" when the running CPU supports it, and
      // the backend SSP_KERNEL_BACKEND currently resolves to.
      for (ssp::kernels::Backend b : {ssp::kernels::Backend::kGeneric,
                                      ssp::kernels::Backend::kAvx2,
                                      ssp::kernels::Backend::kNeon}) {
        if (ssp::kernels::backend_compiled(b)) {
          std::printf("backend %s %s\n", ssp::kernels::backend_name(b),
                      ssp::kernels::backend_supported(b) ? "+" : "-");
        }
      }
      std::printf("active %s\n",
                  ssp::kernels::backend_name(ssp::kernels::active_backend()));
      return 0;
    }
    ssp::cli::apply_threads(args);
    // Spans/metrics record from here on; flushed below. Observability is
    // read-only telemetry — the emitted graph is bit-identical with or
    // without --trace.
    const std::string trace_path = ssp::cli::apply_trace(args);
    const std::string in_path = args.require("in");
    const ssp::SparsifyOptions opts = ssp::cli::sparsify_options_from(args);
    // Any scale flag routes through the scale driver (whose one-unit path
    // is the whole-graph engine bit for bit), so every scale flag is
    // honoured and validated. Boolean flags count by value: `--rescale=false`
    // selects nothing.
    const bool partitioned = args.has("partitions") ||
                             args.has("cut-policy") ||
                             args.has("cut-sigma2") ||
                             args.get_bool("estimate-quality", false) ||
                             args.get_bool("rescale", false);
    const bool dynamic =
        args.has("update-file") || args.get_bool("warm-refine", false);
    const bool outofcore = args.get_int("memory-budget-mb", 0) > 0;
    const int rc = [&]() -> int {
      if (outofcore) {
        SSP_REQUIRE(!partitioned && !dynamic,
                    "--memory-budget-mb routes through the out-of-core "
                    "hierarchical layer; it cannot be combined with "
                    "partition or update flags");
      }
      if (dynamic) {
        SSP_REQUIRE(!partitioned,
                    "--update-file replays through the whole-graph dynamic "
                    "layer; it cannot be combined with partition flags");
      }
      if (partitioned || outofcore) return run_scale(args, in_path, opts);
      const ssp::Graph g = ssp::load_graph_source(in_path);
      std::printf("loaded %s: |V| = %d, |E| = %lld\n", in_path.c_str(),
                  g.num_vertices(), static_cast<long long>(g.num_edges()));
      return dynamic ? run_dynamic(args, g, opts)
                     : run_whole_graph(args, g, opts);
    }();
    if (!ssp::cli::finish_trace(trace_path) && rc == 0) return 1;
    return rc;
  });
}
