// mesh-precond, dense-network and outofcore-mesh: sparsifiers of graphs
// loaded once during set-up, plus (mesh-precond) the PCG solves that use
// the sparsifier as a preconditioner.
//
// Why panels: one sparsification's cost varies up to 3x between inputs of
// the same family, because the number of densification rounds (1-5 on a
// mesh at sigma2 = 100) depends on where the sigma2 estimate lands. A run
// that measured one seeded graph would therefore move with the seed, not
// with the code. dense-network and outofcore-mesh measure a panel of
// seeded instances per pass; mesh-precond models a solver user with one
// fixed circuit matrix and seeded right-hand sides.

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/sparsifier_engine.hpp"
#include "core/sparsifier_preconditioner.hpp"
#include "gates.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/laplacian.hpp"
#include "graph/mtx_io.hpp"
#include "obs/metrics.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "scale/quality.hpp"
#include "solver/pcg.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/sspb_io.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Sizes: each pass over a workload's instances lasts a few seconds, so a
// run fits at least two passes and every pass averages host noise.

// mesh-precond: the G3_circuit proxy, a 128 x 128 mesh with log-uniform
// 0.1-10 conductances, generated with the fixed seed the repository's
// paper benches use for it; the engine keeps its default seed.
constexpr ssp::Vertex kMeshSide = 128;
constexpr std::uint64_t kMeshGraphSeed = 101;
constexpr std::uint64_t kMeshEngineSeed = 42;
constexpr int kRightHandSides = 16;
constexpr double kSolveTolerance = 1e-6;

// dense-network: appu-proxy networks, unit weights.
constexpr int kDenseInstances = 24;
constexpr ssp::Vertex kDenseVertices = 600;
constexpr ssp::EdgeId kDenseDegree = 30;

// outofcore-mesh: log-weight meshes mapped from .sspb, 8 leaves each. The
// panel is large because its mean is the metric (see FastestRuns::mean).
// The verified quality of the first kOutOfCoreVerified instances is
// recorded, since one quality estimate costs several sparsifications.
constexpr int kOutOfCoreInstances = 48;
constexpr int kOutOfCoreVerified = 16;
constexpr ssp::Vertex kOutOfCoreSide = 96;
constexpr std::uint64_t kLeafBudget = 256u << 10;

constexpr double kSigma2 = 100.0;
// Dense networks need more densification rounds as they grow (21-30 at
// 2,500 vertices), and the default budget of 24 would end some inputs
// short of the target. A budget the target always beats keeps every run
// reaching it.
constexpr ssp::Index kMaxRounds = 64;

const char* const kMeshFile = "mesh.mtx";

std::string instance_file(const char* stem, int k, const char* ext) {
  return std::string(stem) + "_" + std::to_string(k) + ext;
}

/// Stream `k` of a workload seed: every instance's graph and engine seed
/// draw from their own split of the run seed.
std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t k) {
  return ssp::Rng(seed).split(k)();
}

const char* const kStageNames[] = {"backbone", "solver-setup",
                                   "spectral-estimate", "embedding",
                                   "filtering", "final-estimate"};

/// Each panel instance's fastest run in a window. The host switches for
/// tens of seconds at a time between phases about 30% apart in speed, in
/// every process at once, so a median over a window lands in whichever
/// phase held most of it. An instance that runs once per pass is timed at
/// several moments of the window, and one fast moment is enough for its
/// fastest run.
class FastestRuns {
 public:
  explicit FastestRuns(int instances)
      : best_(static_cast<std::size_t>(instances),
              std::numeric_limits<double>::infinity()) {}
  void add(int instance, double seconds) {
    double& b = best_[static_cast<std::size_t>(instance)];
    b = std::min(b, seconds);
  }
  /// Robust to one instance that needs many rounds.
  [[nodiscard]] double median() const {
    std::vector<double> v = best_;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  }
  /// Moves least with the seed's choice of instances whose costs lie 3x
  /// apart.
  [[nodiscard]] double mean() const {
    double sum = 0.0;
    for (const double b : best_) sum += b;
    return sum / static_cast<double>(best_.size());
  }

 private:
  std::vector<double> best_;
};

/// Records a panel workload's fastest runs, one value per window.
void record_fastest(const FastestRuns& untraced, const FastestRuns& traced,
                    double (FastestRuns::*typical)() const, bool was_traced,
                    Report& rep) {
  const double t = (untraced.*typical)();
  rep.sample("sparsify_s", t);
  rep.sample("result_latency_ms", t * 1e3);
  if (was_traced) rep.sample("traced.sparsify_s", (traced.*typical)());
}

double stage_seconds(const Counters& before, const Counters& after) {
  double sum = 0.0;
  for (const char* stage : kStageNames) {
    sum += delta(before, after,
                 std::string("engine.stage.") + stage + ".ns") / 1e9;
  }
  return sum;
}

}  // namespace

void record_engine_layers(const Counters& b, const Counters& a, double wall,
                          double per, Report& rep) {
  auto ns = [&](const char* stage) {
    return delta(b, a, std::string("engine.stage.") + stage + ".ns") / 1e9 /
           per;
  };
  rep.sample("tree.backbone_s", ns("backbone"));
  rep.sample("core.solver_setup_s", ns("solver-setup"));
  rep.sample("core.estimate_s", ns("spectral-estimate"));
  rep.sample("core.embedding_s", ns("embedding"));
  rep.sample("core.filter_s", ns("filtering"));
  rep.sample("core.final_estimate_s", ns("final-estimate"));
  rep.sample("core.rounds", delta(b, a, "engine.rounds") / per);
  rep.sample("core.edges_added",
             delta(b, a, "engine.filter.edges_added") / per);
  const double iters = delta(b, a, "solver.pcg.iterations");
  const double solves = delta(b, a, "solver.pcg.solves");
  rep.sample("solver.inner_pcg_iters", iters / per);
  rep.sample("solver.inner_pcg_solves", solves / per);
  rep.sample("solver.inner_iters_per_solve", solves > 0 ? iters / solves : 0);
  rep.sample("solver.tree_solves",
             (delta(b, a, "solver.tree.solves") +
              delta(b, a, "solver.tree.panel_columns")) / per);
  const double pooled = delta(b, a, "pool.regions");
  const double inlined = delta(b, a, "pool.inline_regions");
  const double busy = delta_matching(b, a, "pool.worker.", ".busy_ns") / 1e9;
  rep.sample("util.pool_regions", pooled / per);
  rep.sample("util.pool_inline_ratio",
             pooled + inlined > 0 ? inlined / (pooled + inlined) : 0.0);
  rep.sample("util.pool_busy_s", busy / per);
  rep.sample("util.parallel_efficiency", busy / (kThreads * wall));
}

namespace {

/// One whole-graph engine run driven through `step()`; returns the result
/// and its wall time. In a traced run each round gets a span, its stage
/// coverage (stage seconds from the registry over the round's wall time)
/// is recorded, and so are the run's per-layer counters.
ssp::SparsifyResult run_engine(const ssp::Graph& g, std::uint64_t seed,
                               bool traced, std::int64_t request, Report& rep,
                               double* wall_out) {
  Counters run_before;
  if (traced) run_before = read_counters();
  const double t0 = now_s();
  std::optional<ssp::Sparsifier> engine;
  {
    const Scope span("core.sparsify", request);
    engine.emplace(g, engine_options(seed));
    ssp::StepStatus status = ssp::StepStatus::kAdvanced;
    while (!ssp::is_terminal(status)) {
      Counters step_before;
      if (traced) step_before = read_counters();
      const double s0 = now_s();
      {
        const Scope step("core.step");
        status = engine->step();
      }
      if (traced) {
        const double wall = now_s() - s0;
        rep.sample("core.stage_coverage",
                   stage_seconds(step_before, read_counters()) / wall);
      }
    }
  }
  *wall_out = now_s() - t0;
  if (traced) {
    record_engine_layers(run_before, read_counters(), *wall_out, 1.0, rep);
  }
  return engine->take_result();
}

/// The edge-set identity gate: every run on an instance must select the
/// same edges in the same order.
class HashGate {
 public:
  explicit HashGate(int instances)
      : first_(static_cast<std::size_t>(instances)) {}
  void add(int instance, std::uint64_t h) {
    auto& first = first_[static_cast<std::size_t>(instance)];
    if (!first) first = h;
    if (h != *first) ++mismatches_;
    ++count_;
  }
  void report(Report& rep) const {
    rep.gate("edge_set_hash_repeats", mismatches_ == 0,
             std::to_string(mismatches_) + " of " + std::to_string(count_) +
                 " runs differ from their instance's first run");
  }

 private:
  std::vector<std::optional<std::uint64_t>> first_;
  int mismatches_ = 0;
  int count_ = 0;
};

/// Times the set-up of a workload's n input instances; `load(k)` sets up
/// instance k. Before the window every instance is set up, and set-ups
/// repeat until more_setup() is satisfied; `resample()` sets one more up
/// (and drops it) after each measured pass. Host contention here shifts in
/// phases of seconds, so set-up samples taken only at the start of a run
/// would all carry that instant's phase; spread over the run they do not.
template <typename T>
class SetupTimer {
 public:
  SetupTimer(int n, std::function<T(int)> load, const char* layer_metric,
             Report& rep)
      : n_(n), load_(std::move(load)), layer_metric_(layer_metric), rep_(rep) {}

  std::vector<T> initial() {
    std::vector<std::optional<T>> loaded(static_cast<std::size_t>(n_));
    double spent = 0.0;
    for (int i = 0; i < n_ || more_setup(i, spent); ++i) {
      auto& slot = loaded[static_cast<std::size_t>(i % n_)];
      slot.reset();
      spent += timed(i % n_, slot);
    }
    std::vector<T> out;
    out.reserve(loaded.size());
    for (auto& slot : loaded) out.push_back(std::move(*slot));
    return out;
  }

  void resample() {
    std::optional<T> dropped;
    timed(next_++ % n_, dropped);
  }

 private:
  double timed(int k, std::optional<T>& slot) {
    const double t0 = now_s();
    slot.emplace(load_(k));
    const double dt = now_s() - t0;
    rep_.sample("setup_s", dt);
    if (layer_metric_ != nullptr) rep_.sample(layer_metric_, dt);
    return dt;
  }

  int n_;
  std::function<T(int)> load_;
  const char* layer_metric_;
  Report& rep_;
  int next_ = 0;
};

/// One gate over every instance of a panel: it passes when each instance
/// passes, and its detail names the first instance that does not.
class PanelGate {
 public:
  explicit PanelGate(std::string name) : name_(std::move(name)) {}
  void check(std::size_t instance, bool ok, const std::string& detail) {
    ++checked_;
    if (!ok && failed_++ == 0) {
      first_ = "; instance " + std::to_string(instance) + ": " + detail;
    }
  }
  void report(Report& rep) const {
    rep.gate(name_, failed_ == 0,
             std::to_string(failed_) + " of " + std::to_string(checked_) +
                 " instances fail" + first_);
  }

 private:
  std::string name_;
  int checked_ = 0;
  int failed_ = 0;
  std::string first_;
};

/// Spanning and reached-target gates of whole-graph results, plus their
/// edges_per_vertex and verified quality.
void verify_results(const std::vector<const ssp::Graph*>& graphs,
                    const std::vector<const ssp::SparsifyResult*>& results,
                    Report& rep) {
  PanelGate spanning("sparsifier_connected_spanning");
  PanelGate reached("reached_target");
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    const ssp::Graph& g = *graphs[k];
    const ssp::SparsifyResult& r = *results[k];
    const std::string span = check_spanning_subgraph(g, r.edges);
    spanning.check(k, span.empty(), span);
    reached.check(k, r.reached_target,
                  "reported sigma2 " + std::to_string(r.sigma2_estimate));
    rep.sample("edges_per_vertex", static_cast<double>(r.edges.size()) /
                                       static_cast<double>(g.num_vertices()));
    record_quality(g, r.extract(g), r.sigma2_estimate, rep);
  }
  spanning.report(rep);
  reached.report(rep);
}

}  // namespace

ssp::SparsifyOptions engine_options(std::uint64_t seed) {
  return ssp::SparsifyOptions{}
      .with_sigma2(kSigma2)
      .with_estimation(ssp::EstimationMode::kPower)
      .with_max_rounds(kMaxRounds)
      .with_threads(kThreads)
      .with_seed(seed);
}

void record_quality(const ssp::Graph& g, const ssp::Graph& p,
                    double sigma2_reported, Report& rep) {
  const double t0 = now_s();
  const ssp::SparsifierQuality q = ssp::estimate_sparsifier_quality(g, p);
  rep.sample("quality.verify_s", now_s() - t0);
  rep.sample("quality.sigma2_reported", sigma2_reported);
  rep.sample("quality.sigma2_verified", q.sigma2);
  rep.sample("sigma2_gap", q.sigma2 / sigma2_reported);
  rep.sample("sigma2_overshoot", std::max(1.0, q.sigma2 / kSigma2));
}

void measure_windows(const RunConfig& cfg, Report& rep,
                     const std::function<void(Phase)>& pass,
                     const std::function<void()>& between_passes) {
  rep.mute_samples(true);
  pass(Phase::kWarmUp);
  rep.mute_samples(false);
  const double t0 = now_s();
  do {
    pass(Phase::kMeasure);
    between_passes();
  } while (now_s() - t0 < cfg.seconds);
  if (cfg.trace) {
    ssp::obs::set_metrics_enabled(true);
    tracer().enable(true);
    const double t1 = now_s();
    do {
      pass(Phase::kTraced);
    } while (now_s() - t1 < cfg.seconds);
    tracer().enable(false);
    ssp::obs::set_metrics_enabled(false);
  }
}

// ---- mesh-precond ----------------------------------------------------------

void prep_mesh_precond(const RunConfig& /*cfg*/) {
  ssp::Rng rng(kMeshGraphSeed);
  const ssp::Graph g = ssp::grid_2d(
      kMeshSide, kMeshSide, ssp::WeightModel::log_uniform(0.1, 10.0), &rng);
  ssp::save_graph_mtx(kMeshFile, g);
}

void run_mesh_precond(const RunConfig& cfg, Report& rep) {
  // The Laplacian is part of the solver user's input, so it is set up
  // with the graph and counted in setup_s.
  struct Loaded {
    ssp::Graph g;
    ssp::CsrMatrix lg;
  };
  SetupTimer<Loaded> setup(
      1,
      [&rep](int) {
        const double t0 = now_s();
        ssp::Graph g = ssp::load_graph_mtx(kMeshFile);
        rep.sample("graph.load_s", now_s() - t0);
        ssp::CsrMatrix lg = ssp::laplacian(g);
        return Loaded{std::move(g), std::move(lg)};
      },
      nullptr, rep);
  const std::vector<Loaded> loaded = setup.initial();
  const ssp::Graph& g = loaded.front().g;
  const ssp::CsrMatrix& lg = loaded.front().lg;
  const auto n = static_cast<std::size_t>(g.num_vertices());

  // Seeded zero-mean right-hand sides (untimed input generation).
  std::vector<std::vector<double>> rhs(kRightHandSides);
  ssp::Rng rhs_rng(derived_seed(cfg.seed, 1));
  for (auto& b : rhs) {
    b = rhs_rng.normal_vector(static_cast<ssp::Index>(n));
    double mean = 0.0;
    for (const double v : b) mean += v;
    mean /= static_cast<double>(n);
    for (double& v : b) v -= mean;
  }

  HashGate hashes(1);
  std::optional<ssp::SparsifyResult> last;
  double worst_residual = 0.0;
  std::int64_t request = 0;
  const ssp::PcgOptions pcg{.max_iterations = 2000,
                            .rel_tolerance = kSolveTolerance,
                            .project_constants = true};
  measure_windows(cfg, rep, [&](Phase phase) {
    const bool traced = phase == Phase::kTraced;
    double sparsify_wall = 0.0;
    ssp::SparsifyResult r =
        run_engine(g, kMeshEngineSeed, traced, request, rep, &sparsify_wall);
    // Downstream use: factor L_P once, then PCG on every right-hand side.
    // Only the library calls are timed; the residual checks run between.
    double factor_s = 0.0;
    double pcg_s = 0.0;
    double iters = 0.0;
    {
      const Scope span("solver.solve", request);
      const double f0 = now_s();
      std::optional<ssp::SparsifierPreconditioner> pre;
      {
        const Scope factor("solver.factor");
        pre.emplace(r.extract(g));
      }
      factor_s = now_s() - f0;
      std::vector<double> x(n);
      for (const auto& b : rhs) {
        std::fill(x.begin(), x.end(), 0.0);
        const double p0 = now_s();
        ssp::PcgResult res;
        {
          const Scope pcg_span("solver.pcg");
          res = ssp::pcg_solve(lg, b, x, *pre, pcg);
        }
        pcg_s += now_s() - p0;
        iters += static_cast<double>(res.iterations);
        const double resid = relative_residual(lg, b, x);
        worst_residual = std::max(worst_residual, resid);
        rep.op(res.converged && resid <= 2 * kSolveTolerance);
      }
      if (traced) {
        rep.sample("solver.factor_nnz", static_cast<double>(pre->factor_nnz()));
      }
    }
    if (traced) {
      rep.sample("traced.sparsify_s", sparsify_wall);
    } else {
      rep.sample("sparsify_s", sparsify_wall);
      rep.sample("result_latency_ms",
                 (sparsify_wall + factor_s + pcg_s) * 1e3);
      rep.sample("solver.factor_s", factor_s);
      rep.sample("solver.pcg_s", pcg_s);
    }
    rep.sample("solver.pcg_iters", iters / kRightHandSides);
    rep.op(r.reached_target);
    hashes.add(0, hash_edges(r.edges));
    last = std::move(r);
    ++request;
  }, [&setup] { setup.resample(); });
  rep.value("peak_rss_mb", peak_rss_mib());

  hashes.report(rep);
  verify_results({&g}, {&*last}, rep);
  std::ostringstream worst;
  worst << "worst ||b - L_G x|| / ||b|| = " << worst_residual;
  rep.gate("pcg_residual_recomputed", worst_residual <= 2 * kSolveTolerance,
           worst.str());
}

// ---- dense-network ---------------------------------------------------------

void prep_dense_network(const RunConfig& cfg) {
  for (int k = 0; k < kDenseInstances; ++k) {
    ssp::Rng rng(derived_seed(cfg.seed, 100 + static_cast<std::uint64_t>(k)));
    ssp::save_graph_mtx(
        instance_file("dense", k, ".mtx"),
        ssp::erdos_renyi_connected(
            kDenseVertices,
            static_cast<ssp::EdgeId>(kDenseVertices) * kDenseDegree, rng));
  }
}

void run_dense_network(const RunConfig& cfg, Report& rep) {
  SetupTimer<ssp::Graph> setup(
      kDenseInstances,
      [](int k) { return ssp::load_graph_mtx(instance_file("dense", k, ".mtx")); },
      "graph.load_s", rep);
  const std::vector<ssp::Graph> graphs = setup.initial();
  auto engine_seed = [&cfg](int k) {
    return derived_seed(cfg.seed, 200 + static_cast<std::uint64_t>(k));
  };
  HashGate hashes(kDenseInstances);
  FastestRuns fastest(kDenseInstances);
  FastestRuns fastest_traced(kDenseInstances);
  std::vector<ssp::SparsifyResult> last(graphs.size());
  std::int64_t request = 0;
  measure_windows(cfg, rep, [&](Phase phase) {
    const int count = phase == Phase::kWarmUp ? 1 : kDenseInstances;
    for (int k = 0; k < count; ++k) {
      double wall = 0.0;
      ssp::SparsifyResult r =
          run_engine(graphs[static_cast<std::size_t>(k)], engine_seed(k),
                     phase == Phase::kTraced, request++, rep, &wall);
      if (phase == Phase::kMeasure) fastest.add(k, wall);
      if (phase == Phase::kTraced) fastest_traced.add(k, wall);
      rep.op(r.reached_target);
      hashes.add(k, hash_edges(r.edges));
      last[static_cast<std::size_t>(k)] = std::move(r);
    }
  }, [&setup] { setup.resample(); });
  rep.value("peak_rss_mb", peak_rss_mib());
  record_fastest(fastest, fastest_traced, &FastestRuns::median, cfg.trace, rep);

  hashes.report(rep);
  std::vector<const ssp::Graph*> graph_ptrs;
  std::vector<const ssp::SparsifyResult*> result_ptrs;
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    graph_ptrs.push_back(&graphs[k]);
    result_ptrs.push_back(&last[k]);
  }
  verify_results(graph_ptrs, result_ptrs, rep);
}

// ---- outofcore-mesh --------------------------------------------------------

void prep_outofcore_mesh(const RunConfig& cfg) {
  for (int k = 0; k < kOutOfCoreInstances; ++k) {
    ssp::Rng rng(derived_seed(cfg.seed, 100 + static_cast<std::uint64_t>(k)));
    ssp::save_graph_mtx(
        instance_file("mesh", k, ".mtx"),
        ssp::grid_2d(kOutOfCoreSide, kOutOfCoreSide,
                     ssp::WeightModel::log_uniform(0.1, 10.0), &rng));
  }
}

void run_outofcore_mesh(const RunConfig& cfg, Report& rep) {
  // Set-up converts each Matrix Market input to .sspb and maps it. A bare
  // mmap open takes about 0.1 ms, too little to time steadily on its own;
  // it is reported separately as storage.open_s. Every conversion writes a
  // new file, so none overwrites a file that is still mapped.
  int files = 0;
  SetupTimer<ssp::storage::MappedGraph> setup(
      kOutOfCoreInstances,
      [&rep, &files](int k) {
        std::string path = instance_file("mesh", k, ".");
        path += std::to_string(files++);
        path += ".sspb";
        ssp::storage::convert_mtx_to_sspb(instance_file("mesh", k, ".mtx"),
                                          path);
        const double t0 = now_s();
        ssp::storage::MappedGraph mg(path);
        rep.sample("storage.open_s", now_s() - t0);
        return mg;
      },
      nullptr, rep);
  const std::vector<ssp::storage::MappedGraph> mapped = setup.initial();
  auto options = [&cfg](int k) {
    return ssp::HierarchicalOptions{}
        .with_memory_budget_bytes(kLeafBudget)
        .with_block_options(engine_options(
            derived_seed(cfg.seed, 200 + static_cast<std::uint64_t>(k))))
        .with_threads(kThreads);
  };

  HashGate hashes(kOutOfCoreInstances);
  FastestRuns fastest(kOutOfCoreInstances);
  FastestRuns fastest_traced(kOutOfCoreInstances);
  std::vector<ssp::HierarchicalResult> last(mapped.size());
  std::int64_t request = 0;
  measure_windows(cfg, rep, [&](Phase phase) {
    const bool traced = phase == Phase::kTraced;
    const int count = phase == Phase::kWarmUp ? 1 : kOutOfCoreInstances;
    for (int k = 0; k < count; ++k) {
      const ssp::storage::MappedGraph& mg = mapped[static_cast<std::size_t>(k)];
      // The release hook is HierarchicalSparsifier's public seam between
      // its passes: after the BFS order, after split + cut scan, and after
      // every leaf.
      std::vector<double> marks;
      Counters before;
      if (traced) before = read_counters();
      ssp::HierarchicalSparsifier hierarchy(mg.view(), options(k));
      hierarchy.set_release_hook([&] {
        marks.push_back(now_s());
        mg.release_pages();
      });
      const double t0 = now_s();
      {
        const Scope span("scale.hierarchical_run", request++);
        hierarchy.run();
      }
      const double t1 = now_s();
      if (phase == Phase::kMeasure) fastest.add(k, t1 - t0);
      if (traced) fastest_traced.add(k, t1 - t0);
      ssp::HierarchicalResult r = hierarchy.take_result();
      if (traced) {
        const Counters after = read_counters();
        record_engine_layers(before, after, t1 - t0, 1.0, rep);
        rep.sample("storage.mmap_bytes", static_cast<double>(mg.file_bytes()));
        rep.sample("scale.leaves", static_cast<double>(r.leaves));
        rep.sample("scale.cut_edges_kept", static_cast<double>(r.cut_edges));
        // Engines run only inside leaves, so their stage time is the leaf
        // sparsification; the rest of the leaf intervals is extraction.
        const double leaf_engine = stage_seconds(before, after);
        if (!r.whole_graph && marks.size() >= 2) {
          rep.sample("scale.partition_s", marks[1] - t0);
          rep.sample("scale.leaf_sparsify_s", leaf_engine);
          rep.sample("scale.extract_s",
                     std::max(0.0, (marks.back() - marks[1]) - leaf_engine));
          rep.sample("scale.stitch_s", t1 - marks.back());
        }
      }
      bool reached = true;
      for (const auto& leaf : r.leaf_stats) {
        reached = reached && leaf.reached_target;
      }
      rep.op(reached);
      hashes.add(k, hash_edges(r.edges));
      last[static_cast<std::size_t>(k)] = std::move(r);
    }
  }, [&setup] { setup.resample(); });
  rep.value("peak_rss_mb", peak_rss_mib());
  record_fastest(fastest, fastest_traced, &FastestRuns::mean, cfg.trace, rep);

  hashes.report(rep);
  PanelGate spanning("stitched_sparsifier_connected_spanning");
  PanelGate reached("reached_target");
  for (std::size_t k = 0; k < mapped.size(); ++k) {
    const ssp::Graph g = mapped[k].materialize();
    const ssp::HierarchicalResult& r = last[k];
    const std::string span = check_spanning_subgraph(g, r.edges);
    spanning.check(k, span.empty(), span);
    double worst_leaf = 0.0;
    bool all_reached = true;
    for (const auto& leaf : r.leaf_stats) {
      worst_leaf = std::max(worst_leaf, leaf.sigma2_estimate);
      all_reached = all_reached && leaf.reached_target;
    }
    reached.check(k, all_reached,
                  "worst leaf sigma2 " + std::to_string(worst_leaf));
    rep.sample("edges_per_vertex", static_cast<double>(r.edges.size()) /
                                       static_cast<double>(g.num_vertices()));
    if (k < static_cast<std::size_t>(kOutOfCoreVerified)) {
      record_quality(g, g.edge_subgraph(r.edges), worst_leaf, rep);
    }
  }
  spanning.report(rep);
  reached.report(rep);
}

}  // namespace perfbench
