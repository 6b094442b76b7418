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
// ssp::Sparsifier engine — or, with --partitions k > 1, through the
// partition-parallel scale layer (one engine per block, concurrent,
// bit-identical for every --threads value) — or, with --update-file,
// through the dynamic update layer, replaying an insert/delete/reweight
// journal batch by batch and re-sparsifying incrementally after each
// commit — or, with --memory-budget-mb, through the out-of-core
// hierarchical layer, which keeps at most one leaf subgraph on the heap
// at a time (a `.sspb` input is never materialized whole). Writes the
// (final) sparsifier back as a symmetric .mtx and prints a
// machine-greppable stats block. --progress streams per-round /
// per-block / per-batch telemetry (per-stage wall times with
// --progress=stages).

#include <algorithm>
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "core/options_io.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "dynamic/update_journal.hpp"
#include "graph/graph_source.hpp"
#include "graph/mtx_io.hpp"
#include "la/kernels/kernels.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "scale/partitioned_sparsifier.hpp"
#include "storage/mapped_graph.hpp"

namespace {

/// Streams engine telemetry to stdout as rounds/stages complete.
class ProgressPrinter : public ssp::StageObserver {
 public:
  explicit ProgressPrinter(bool show_stages) : show_stages_(show_stages) {}

  bool on_round(const ssp::DensifyRound& r) override {
    std::printf("round %3lld  sigma2 %10.2f  theta %8.3e  added %6lld  "
                "%.3fs\n",
                static_cast<long long>(r.round), r.sigma2_estimate, r.theta,
                static_cast<long long>(r.edges_added), r.seconds);
    return true;
  }
  void on_stage(ssp::StageKind stage, double seconds) override {
    if (show_stages_) {
      std::printf("  stage %-17s %.4fs\n", ssp::to_string(stage), seconds);
    }
  }

 private:
  bool show_stages_;
};

/// Streams scale-layer telemetry: one line per pipeline stage and per
/// block (engine stage breakdown with --progress=stages).
class ScaleProgressPrinter : public ssp::ScaleObserver {
 public:
  explicit ScaleProgressPrinter(bool show_stages)
      : show_stages_(show_stages) {}

  void on_scale_stage(ssp::ScaleStage stage, double seconds) override {
    std::printf("stage %-14s %.4fs\n", ssp::to_string(stage), seconds);
  }
  void on_block(const ssp::BlockStats& b) override {
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
    if (show_stages_) {
      for (int s = 0; s < ssp::kNumStageKinds; ++s) {
        const double sec = b.stage_seconds[static_cast<std::size_t>(s)];
        if (sec > 0.0) {
          std::printf("    stage %-17s %.4fs\n",
                      ssp::to_string(static_cast<ssp::StageKind>(s)), sec);
        }
      }
    }
  }

 private:
  bool show_stages_;
};

int run_whole_graph(const ssp::cli::ArgParser& args, const ssp::Graph& g,
                    const ssp::SparsifyOptions& opts) {
  ssp::Sparsifier engine(g, opts);
  ProgressPrinter progress(args.get("progress", "") == "stages");
  if (args.has("progress")) engine.set_observer(&progress);
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

int run_partitioned(const ssp::cli::ArgParser& args, const ssp::Graph& g,
                    const ssp::PartitionedOptions& opts) {
  ssp::PartitionedSparsifier driver(g, opts);
  ScaleProgressPrinter progress(args.get("progress", "") == "stages");
  if (args.has("progress")) driver.set_observer(&progress);
  const ssp::PartitionedResult& res = driver.run();

  std::printf("edges: %lld  density: %.4f x |V|\n",
              static_cast<long long>(res.num_edges()),
              static_cast<double>(res.num_edges()) / g.num_vertices());
  std::printf("blocks: %lld (policy %s)  cut edges kept %lld / %lld\n",
              static_cast<long long>(res.blocks),
              ssp::to_string(res.cut_policy),
              static_cast<long long>(res.cut_edges_kept),
              static_cast<long long>(res.cut_edges_total));
  bool reached = true;
  double worst_sigma2 = 0.0;
  for (const ssp::BlockStats& b : res.block_stats) {
    reached = reached && b.reached_target;
    worst_sigma2 = std::max(worst_sigma2, b.sigma2_estimate);
  }
  if (res.cut_stats.has_value()) {
    reached = reached && res.cut_stats->reached_target;
  }
  std::printf("block sigma2: target %.3f, worst estimate %.3f (%s)\n",
              opts.block.sigma2, worst_sigma2,
              reached ? "reached" : "NOT reached");
  if (res.quality.has_value()) {
    std::printf("global: lambda_min %.6f lambda_max %.3f sigma2 %.3f\n",
                res.quality->lambda_min, res.quality->lambda_max,
                res.quality->sigma2);
  }
  if (res.rescaled.has_value()) {
    std::printf("rescale: scale %.6e, two-sided sigma2 %.3f -> %.3f\n",
                res.rescaled->scale, res.rescaled->sigma2_before,
                res.rescaled->sigma2_after);
  }
  std::printf("time %.3fs\n", res.total_seconds);

  if (args.has("out")) {
    const ssp::Graph p = res.rescaled.has_value() ? res.rescaled->sparsifier
                                                  : res.extract(g);
    ssp::save_graph_mtx(args.get("out", ""), p);
    std::printf("wrote %s\n", args.get("out", "").c_str());
  }
  return reached ? 0 : 2;
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

int report_outofcore(const ssp::cli::ArgParser& args, const ssp::GraphView& v,
                     const ssp::HierarchicalOptions& opts,
                     const ssp::HierarchicalResult& res) {
  std::printf("edges: %lld  density: %.4f x |V|\n",
              static_cast<long long>(res.num_edges()),
              static_cast<double>(res.num_edges()) / v.num_vertices());
  std::printf("leaves: %lld (depth %lld%s)  cut edges kept %lld\n",
              static_cast<long long>(res.leaves),
              static_cast<long long>(res.depth),
              res.whole_graph ? ", whole-graph" : "",
              static_cast<long long>(res.cut_edges));
  bool reached = true;
  double worst_sigma2 = 0.0;
  for (const ssp::BlockStats& b : res.leaf_stats) {
    reached = reached && b.reached_target;
    worst_sigma2 = std::max(worst_sigma2, b.sigma2_estimate);
  }
  std::printf("leaf sigma2: target %.3f, worst estimate %.3f (%s)\n",
              opts.block.sigma2, worst_sigma2,
              reached ? "reached" : "NOT reached");
  std::printf("time %.3fs\n", res.total_seconds);

  if (args.has("out")) {
    const ssp::Graph p = extract_from_view(v, res.edges);
    ssp::save_graph_mtx(args.get("out", ""), p);
    std::printf("wrote %s\n", args.get("out", "").c_str());
  }
  return reached ? 0 : 2;
}

/// Out-of-core routing: a `.sspb` input stays mmap'd (pages released
/// between leaves); other sources load once onto the heap and run through
/// the same hierarchy, so the budget still bounds the per-leaf engines.
int run_outofcore(const ssp::cli::ArgParser& args, const std::string& in_path,
                  const ssp::SparsifyOptions& base) {
  const ssp::HierarchicalOptions opts =
      ssp::cli::hierarchical_options_from(args, base);
  ScaleProgressPrinter progress(args.get("progress", "") == "stages");
  if (ssp::classify_graph_source(in_path) == ssp::GraphSourceKind::kSspb) {
    const ssp::storage::MappedGraph mapped(in_path);
    std::printf("mapped %s: |V| = %d, |E| = %lld (%llu bytes)\n",
                in_path.c_str(), mapped.num_vertices(),
                static_cast<long long>(mapped.num_edges()),
                static_cast<unsigned long long>(mapped.file_bytes()));
    ssp::HierarchicalSparsifier driver(mapped.view(), opts);
    driver.set_release_hook([&mapped] { mapped.release_pages(); });
    if (args.has("progress")) driver.set_observer(&progress);
    return report_outofcore(args, mapped.view(), opts, driver.run());
  }
  const ssp::Graph g = ssp::load_graph_source(in_path);
  std::printf("loaded %s: |V| = %d, |E| = %lld\n", in_path.c_str(),
              g.num_vertices(), static_cast<long long>(g.num_edges()));
  ssp::HierarchicalSparsifier driver(g, opts);
  if (args.has("progress")) driver.set_observer(&progress);
  return report_outofcore(args, g, opts, driver.run());
}

/// Streams dynamic-layer telemetry: one line per applied batch (stage
/// breakdown with --progress=stages).
class DynamicProgressPrinter : public ssp::DynamicObserver {
 public:
  explicit DynamicProgressPrinter(bool show_stages)
      : show_stages_(show_stages) {}

  void on_dynamic_stage(ssp::DynamicStage stage, double seconds) override {
    if (show_stages_) {
      std::printf("  stage %-12s %.4fs\n", ssp::to_string(stage), seconds);
    }
  }
  void on_update(const ssp::UpdateStats& s) override {
    std::printf("batch %3lld  %-11s +%lld -%lld ~%lld  dirty %.4f  "
                "swaps %lld  |Es| %lld  sigma2 %8.2f%s  %.3fs\n",
                static_cast<long long>(s.batch), ssp::to_string(s.route),
                static_cast<long long>(s.inserted),
                static_cast<long long>(s.removed),
                static_cast<long long>(s.reweighted), s.dirty_fraction,
                static_cast<long long>(s.tree_swaps),
                static_cast<long long>(s.sparsifier_edges),
                s.sigma2_estimate, s.reached_target ? "" : " (NOT reached)",
                s.seconds);
  }

 private:
  bool show_stages_;
};

int run_dynamic(const ssp::cli::ArgParser& args, const ssp::Graph& g,
                const ssp::SparsifyOptions& base) {
  // The dynamic layer pins the canonical kruskal (max-weight) backbone —
  // the one whose incremental repair equals a cold rebuild bit for bit —
  // so an explicit --backbone would be silently overridden; reject it.
  SSP_REQUIRE(!args.has("backbone"),
              "--update-file pins the canonical kruskal backbone; "
              "--backbone cannot be combined with it");
  const auto journal = ssp::load_update_journal(args.require("update-file"));
  DynamicProgressPrinter progress(args.get("progress", "") == "stages");
  // Observer attached at construction so the initial build (batch 0)
  // streams its telemetry too.
  ssp::DynamicSparsifier dyn(g, ssp::cli::dynamic_options_from(args, base),
                             args.has("progress") ? &progress : nullptr);
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
      .option("progress", "stream per-round telemetry (=stages for more)")
      .option("kernels", "print compiled/supported kernel backends and exit");
  ssp::cli::add_sparsify_options(args);
  ssp::cli::add_partition_options(args);
  ssp::cli::add_dynamic_options(args);
  ssp::cli::add_outofcore_options(args);
  ssp::cli::add_trace_option(args);
  return ssp::cli::run_tool(args, argc, argv, [&args] {
    if (args.has("kernels")) {
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
    // Any scale-layer flag routes through PartitionedSparsifier (whose
    // k = 1 path is the whole-graph engine bit for bit), so
    // --estimate-quality / --rescale / --cut-policy are honoured — and
    // every scale flag, --partitions included, is validated.
    const bool partitioned = args.has("partitions") ||
                             args.has("cut-policy") ||
                             args.has("cut-sigma2") ||
                             args.has("estimate-quality") ||
                             args.has("rescale");
    const bool dynamic = args.has("update-file") ||
                         args.has("rebuild-threshold") ||
                         args.has("warm-refine");
    const bool outofcore = args.get_int("memory-budget-mb", 0) > 0;
    const int rc = [&]() -> int {
      if (outofcore) {
        SSP_REQUIRE(!partitioned && !dynamic,
                    "--memory-budget-mb routes through the out-of-core "
                    "hierarchical layer; it cannot be combined with "
                    "partition or update flags");
        return run_outofcore(args, in_path, opts);
      }
      const ssp::Graph g = ssp::load_graph_source(in_path);
      std::printf("loaded %s: |V| = %d, |E| = %lld\n", in_path.c_str(),
                  g.num_vertices(), static_cast<long long>(g.num_edges()));
      if (dynamic) {
        SSP_REQUIRE(!partitioned,
                    "--update-file replays through the whole-graph dynamic "
                    "layer; it cannot be combined with partition flags");
        return run_dynamic(args, g, opts);
      }
      if (partitioned) {
        return run_partitioned(
            args, g, ssp::cli::partitioned_options_from(args, opts));
      }
      return run_whole_graph(args, g, opts);
    }();
    if (!ssp::cli::finish_trace(trace_path) && rc == 0) return 1;
    return rc;
  });
}
