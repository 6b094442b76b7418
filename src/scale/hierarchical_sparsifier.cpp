#include "scale/hierarchical_sparsifier.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "core/sparsifier_engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/subgraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/recursive_bisection.hpp"
#include "storage/mapped_graph.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/union_find.hpp"

namespace ssp {

namespace {

/// Adds one pipeline stage's wall time to its counter and emits its span.
/// Telemetry only: recording never alters the split or the seeds.
void notify_stage(const char* span, obs::MetricId ns_metric, double seconds) {
  obs::counter_add(ns_metric, static_cast<std::uint64_t>(seconds * 1e9));
  obs::emit_span(span, seconds);
}

/// Deterministic BFS order (roots ascending, neighbors in CSR order); the
/// root count is G's component count.
struct Ordering {
  std::vector<Vertex> order;
  Index roots = 0;
};

Ordering bfs_order(const GraphView& g) {
  const Vertex n = g.num_vertices();
  Ordering out;
  out.order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::size_t head = 0;
  for (Vertex r = 0; r < n; ++r) {
    if (seen[static_cast<std::size_t>(r)] != 0) continue;
    ++out.roots;
    seen[static_cast<std::size_t>(r)] = 1;
    out.order.push_back(r);
    while (head < out.order.size()) {
      const Vertex u = out.order[head++];
      for (const auto& item : g.neighbors(u)) {
        if (seen[static_cast<std::size_t>(item.neighbor)] == 0) {
          seen[static_cast<std::size_t>(item.neighbor)] = 1;
          out.order.push_back(item.neighbor);
        }
      }
    }
  }
  return out;
}

/// `budget` with 0 read as unbounded.
std::uint64_t effective_budget(std::uint64_t budget) {
  return budget == 0 ? ~std::uint64_t{0} : budget;
}

/// Splits [lo, hi) of the BFS order at its degree-sum midpoint until every
/// range fits the budget (or hits the single-vertex / kMaxSplitDepth
/// floor), numbering leaves left to right. `prefix[i]` is the degree sum
/// of order[0, i), so the split is a pure function of CSR adjacency.
struct LeafSplit {
  std::vector<Vertex> leaf_of;
  Index leaves = 0;
  Index depth = 0;
};

void split_range(const std::vector<Vertex>& order,
                 const std::vector<std::uint64_t>& prefix, std::size_t lo,
                 std::size_t hi, Index depth, std::uint64_t budget,
                 LeafSplit& out) {
  const auto vertices = static_cast<Vertex>(hi - lo);
  const std::uint64_t dsum = prefix[hi] - prefix[lo];
  if (hi - lo <= 1 || depth >= kMaxSplitDepth ||
      HierarchicalSparsifier::estimate_subgraph_bytes(vertices, dsum) <=
          budget) {
    for (std::size_t i = lo; i < hi; ++i) {
      out.leaf_of[static_cast<std::size_t>(order[i])] =
          static_cast<Vertex>(out.leaves);
    }
    ++out.leaves;
    out.depth = std::max(out.depth, depth);
    return;
  }
  // First index whose prefix reaches the degree-sum midpoint, clamped so
  // both halves are non-empty (a hub vertex heavier than half the range
  // still splits off its neighbors).
  const std::uint64_t target = prefix[lo] + dsum / 2;
  const auto it = std::lower_bound(
      prefix.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
      prefix.begin() + static_cast<std::ptrdiff_t>(hi), target);
  const auto mid = std::clamp(
      static_cast<std::size_t>(it - prefix.begin()), lo + 1, hi - 1);
  split_range(order, prefix, lo, mid, depth + 1, budget, out);
  split_range(order, prefix, mid, hi, depth + 1, budget, out);
}

LeafSplit split_leaves(const GraphView& g, const std::vector<Vertex>& order,
                       std::uint64_t budget) {
  const std::size_t n = order.size();
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + static_cast<std::uint64_t>(g.degree(order[i]));
  }
  LeafSplit out;
  out.leaf_of.assign(n, 0);
  split_range(order, prefix, 0, n, 0, effective_budget(budget), out);
  return out;
}

/// One connected component of a unit (or of the cut graph) and its engine
/// outcome. Tasks live in a vector, so the subgraph is resolved through
/// `subgraph()`: `unit` points at the wave's stable storage, `own` holds
/// the component's own extraction when the unit is disconnected, with its
/// edge map already composed to host ids.
struct ComponentTask {
  Index block = 0;                  ///< unit id, or kCutBlock
  const Subgraph* unit = nullptr;   ///< the unit's subgraph (stable)
  std::optional<Subgraph> own;      ///< per-component extraction, if any
  const SparsifyOptions* opts = nullptr;
  std::uint64_t seed = 0;
  // Outputs (each task writes only its own slots).
  std::vector<EdgeId> selected;  ///< host edge ids kept
  double sigma2 = 0.0;
  bool reached = true;
  bool is_tree = false;
  double seconds = 0.0;

  [[nodiscard]] const Subgraph& subgraph() const {
    return own.has_value() ? *own : *unit;
  }
};

/// Appends one task per connected component of `sub`. Component c draws
/// its seed from `parent.split(stream).split(c)`. `sub` and `opts` must
/// stay alive and unmoved until the tasks have run.
void make_tasks(const Subgraph& sub, Index block, std::uint64_t stream,
                const Rng& parent, const SparsifyOptions& opts,
                std::vector<ComponentTask>& tasks) {
  if (sub.graph.num_vertices() == 0) return;
  const Rng unit_rng = parent.split(stream);
  const ComponentLabels comps = connected_components(sub.graph);
  auto task_for = [&](Vertex c) {
    ComponentTask task;
    task.block = block;
    task.unit = &sub;
    task.opts = &opts;
    task.seed = unit_rng.split(static_cast<std::uint64_t>(c))();
    return task;
  };
  if (comps.num_components == 1) {
    tasks.push_back(task_for(0));
    return;
  }
  std::vector<Subgraph> parts =
      partition_subgraphs(sub.graph, comps.label, comps.num_components);
  for (Vertex c = 0; c < comps.num_components; ++c) {
    ComponentTask task = task_for(c);
    task.own = std::move(parts[static_cast<std::size_t>(c)]);
    for (EdgeId& e : task.own->edge_to_global) {
      e = sub.edge_to_global[static_cast<std::size_t>(e)];
    }
    tasks.push_back(std::move(task));
  }
}

/// Runs one task: verbatim keep for trees (κ = 1), a single-threaded
/// engine otherwise. A pure function of the task inputs — never of the
/// executing thread.
void run_task(ComponentTask& task) {
  // Live span on the executing worker thread: each component shows up on
  // its real timeline track in the trace, labeled by unit.
  const obs::Span span("scale.component", "block", task.block);
  const WallTimer timer;
  const Subgraph& sub = task.subgraph();
  if (sub.graph.num_edges() ==
      static_cast<EdgeId>(sub.graph.num_vertices()) - 1) {
    task.selected = sub.edge_to_global;
    task.sigma2 = 1.0;
    task.is_tree = true;
  } else {
    SparsifyOptions eopts = *task.opts;
    eopts.seed = task.seed;
    eopts.threads = 1;  // concurrency lives in the outer fan-out
    Sparsifier engine(sub.graph, eopts);
    engine.run();
    const SparsifyResult& r = engine.result();
    task.selected.reserve(r.edges.size());
    for (const EdgeId local : r.edges) {
      task.selected.push_back(
          sub.edge_to_global[static_cast<std::size_t>(local)]);
    }
    task.sigma2 = r.sigma2_estimate;
    task.reached = r.reached_target;
  }
  task.seconds = timer.seconds();
}

/// Runs every task on the global pool; each task owns its output slots,
/// so the result is independent of the thread count.
void run_tasks(std::vector<ComponentTask>& tasks, int threads) {
  parallel_for(0, static_cast<Index>(tasks.size()), threads,
               [&tasks](Index i) {
                 run_task(tasks[static_cast<std::size_t>(i)]);
               });
}

/// Folds one unit's tasks (contiguous in the task list) into its
/// BlockStats.
BlockStats fold_stats(Index block, const Subgraph& sub,
                      std::span<const ComponentTask> tasks) {
  BlockStats stats;
  stats.block = block;
  stats.vertices = sub.graph.num_vertices();
  stats.edges = sub.graph.num_edges();
  for (const ComponentTask& task : tasks) {
    ++stats.components;
    if (task.is_tree) ++stats.tree_components;
    stats.kept_edges += static_cast<EdgeId>(task.selected.size());
    stats.sigma2_estimate = std::max(stats.sigma2_estimate, task.sigma2);
    stats.reached_target = stats.reached_target && task.reached;
    stats.seconds += task.seconds;
  }
  return stats;
}

}  // namespace

// ---- HierarchicalOptions ---------------------------------------------------

void HierarchicalOptions::validate() const {
  SSP_REQUIRE(partitions >= 1, "HierarchicalOptions: partitions must be >= 1");
  SSP_REQUIRE(threads >= 0, "HierarchicalOptions: threads must be >= 0");
  block.validate();
  if (cut.has_value()) cut->validate();
}

HierarchicalOptions& HierarchicalOptions::with_partitions(Index k) {
  SSP_REQUIRE(k >= 1, "HierarchicalOptions: partitions must be >= 1");
  partitions = k;
  return *this;
}

HierarchicalOptions& HierarchicalOptions::with_memory_budget_bytes(
    std::uint64_t bytes) {
  memory_budget_bytes = bytes;
  return *this;
}

HierarchicalOptions& HierarchicalOptions::with_cut_policy(CutPolicy policy) {
  cut_policy = policy;
  return *this;
}

HierarchicalOptions& HierarchicalOptions::with_block_options(
    SparsifyOptions opts) {
  opts.validate();
  block = std::move(opts);
  return *this;
}

HierarchicalOptions& HierarchicalOptions::with_cut_options(
    SparsifyOptions opts) {
  opts.validate();
  cut = std::move(opts);
  return *this;
}

HierarchicalOptions& HierarchicalOptions::with_threads(int n) {
  SSP_REQUIRE(n >= 0, "HierarchicalOptions: threads must be >= 0");
  threads = n;
  return *this;
}

// ---- HierarchicalSparsifier ------------------------------------------------

std::uint64_t HierarchicalSparsifier::estimate_subgraph_bytes(
    Vertex vertices, std::uint64_t directed_entries) {
  // Per directed CSR entry of a finalized heap subgraph: adj_nbr (4) +
  // adj_eid (8) + adj_w (8), plus half an AoS Edge (24 / 2) and half an
  // edge_to_global slot (8 / 2) = 36; per vertex: adj_ptr (8) +
  // weighted_degree (8) + local_to_global (4) + extraction scratch (4)
  // = 24. Rounded up to 40 / 32 — overestimating splits one level too
  // deep, underestimating busts the budget, so round up.
  return 40 * directed_entries + 32 * static_cast<std::uint64_t>(vertices);
}

std::vector<Vertex> HierarchicalSparsifier::budget_split(
    GraphView g, std::uint64_t budget_bytes) {
  return split_leaves(g, bfs_order(g).order, budget_bytes).leaf_of;
}

HierarchicalSparsifier::HierarchicalSparsifier(GraphView g,
                                               HierarchicalOptions opts)
    : g_(g), opts_(std::move(opts)) {
  SSP_REQUIRE(g_.num_vertices() >= 1,
              "HierarchicalSparsifier: graph must be non-empty");
  opts_.validate();
  SSP_REQUIRE(opts_.partitions == 1,
              "HierarchicalSparsifier: recursive bisection needs a heap "
              "Graph; bind a view with partitions = 1");
}

HierarchicalSparsifier::HierarchicalSparsifier(const Graph& g,
                                               HierarchicalOptions opts)
    : g_(g), heap_(&g), opts_(std::move(opts)) {
  SSP_REQUIRE(g.num_vertices() >= 1,
              "HierarchicalSparsifier: graph must be non-empty");
  opts_.validate();
}

HierarchicalSparsifier::HierarchicalSparsifier(const Graph& g,
                                               std::vector<Vertex> assignment,
                                               HierarchicalOptions opts)
    : HierarchicalSparsifier(g, std::move(opts)) {
  SSP_REQUIRE(
      assignment.size() == static_cast<std::size_t>(g.num_vertices()),
      "HierarchicalSparsifier: assignment size must equal num_vertices");
  Vertex max_id = -1;
  for (const Vertex b : assignment) {
    SSP_REQUIRE(b >= 0, "HierarchicalSparsifier: negative unit id");
    max_id = std::max(max_id, b);
  }
  std::vector<char> used(static_cast<std::size_t>(max_id) + 1, 0);
  for (const Vertex b : assignment) used[static_cast<std::size_t>(b)] = 1;
  SSP_REQUIRE(std::find(used.begin(), used.end(), 0) == used.end(),
              "HierarchicalSparsifier: empty unit in assignment");
  assignment_ = std::move(assignment);
}

const HierarchicalResult& HierarchicalSparsifier::run() {
  if (done_) return result_;
  const WallTimer total;

  // Split: the BFS pass counts G's components for the stitch and orders
  // the vertices for the budget split; the units come from one source.
  const WallTimer split_timer;
  const Ordering ordering = bfs_order(g_);
  release();
  std::vector<Vertex> unit_of;
  Index units = 0;
  if (assignment_.has_value()) {
    unit_of = std::move(*assignment_);
    assignment_.reset();
    units = static_cast<Index>(
                *std::max_element(unit_of.begin(), unit_of.end())) +
            1;
  } else if (opts_.partitions > 1) {
    RecursiveBisectionOptions po;
    po.num_parts = opts_.partitions;
    RecursiveBisectionResult rb = recursive_bisection(*heap_, po);
    unit_of = std::move(rb.assignment);
    units = rb.parts;
  } else {
    LeafSplit split =
        split_leaves(g_, ordering.order, opts_.memory_budget_bytes);
    unit_of = std::move(split.leaf_of);
    units = split.leaves;
    result_.depth = split.depth;
  }
  result_.leaves = units;

  if (units == 1 && ordering.roots == 1) {
    notify_stage("scale.partition", "scale.stage.partition.ns",
                 split_timer.seconds());
    run_whole_graph();
  } else {
    run_units(std::move(unit_of), units, ordering.roots,
              split_timer.seconds());
  }
  result_.total_seconds = total.seconds();
  done_ = true;
  return result_;
}

void HierarchicalSparsifier::run_whole_graph() {
  // `block` verbatim: same seed, same streams, same edge list as a
  // standalone whole-graph engine run.
  WallTimer timer;
  std::optional<Graph> materialized;
  if (heap_ == nullptr) {
    materialized = g_.materialize();
    release();
  }
  const Graph& g = heap_ != nullptr ? *heap_ : *materialized;
  notify_stage("scale.extract", "scale.stage.extract.ns", timer.seconds());

  timer.reset();
  Sparsifier engine(g, opts_.block);
  engine.run();
  SparsifyResult r = engine.take_result();
  BlockStats stats;
  stats.vertices = g.num_vertices();
  stats.edges = g.num_edges();
  stats.components = 1;
  stats.kept_edges = static_cast<EdgeId>(r.edges.size());
  stats.sigma2_estimate = r.sigma2_estimate;
  stats.reached_target = r.reached_target;
  stats.seconds = timer.seconds();
  result_.edges = std::move(r.edges);
  result_.whole_graph = true;
  result_.leaf_stats.push_back(stats);
  notify_stage("scale.block-sparsify", "scale.stage.block-sparsify.ns",
               stats.seconds);
  notify_stage("scale.cut-sparsify", "scale.stage.cut-sparsify.ns", 0.0);
  notify_stage("scale.stitch", "scale.stage.stitch.ns", 0.0);
}

void HierarchicalSparsifier::run_units(std::vector<Vertex> unit_of,
                                       Index units, Index roots,
                                       double split_seconds) {
  // Cut scan (ascending host edge id) and per-unit footprint estimates.
  WallTimer timer;
  std::vector<EdgeId> cut;
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    const Edge edge = g_.edge(e);
    if (unit_of[static_cast<std::size_t>(edge.u)] !=
        unit_of[static_cast<std::size_t>(edge.v)]) {
      cut.push_back(e);
    }
  }
  result_.cut_edges = static_cast<EdgeId>(cut.size());
  // The estimate is linear in vertices and entries, so per-vertex terms
  // sum to each unit's estimate.
  std::vector<std::uint64_t> unit_bytes(static_cast<std::size_t>(units), 0);
  for (Vertex v = 0; v < g_.num_vertices(); ++v) {
    const Vertex u = unit_of[static_cast<std::size_t>(v)];
    unit_bytes[static_cast<std::size_t>(u)] += estimate_subgraph_bytes(
        1, static_cast<std::uint64_t>(g_.degree(v)));
  }
  notify_stage("scale.partition", "scale.stage.partition.ns",
               split_seconds + timer.seconds());
  release();

  // Waves: extract the longest run of units that fits the budget, fan its
  // components out over the pool, keep the selections, drop the
  // subgraphs and the mapped pages before the next wave.
  const std::uint64_t budget = effective_budget(opts_.memory_budget_bytes);
  const Rng parent(opts_.block.seed);
  double extract_seconds = 0.0;
  double sparsify_seconds = 0.0;
  for (Index first = 0; first < units;) {
    Index last = first + 1;
    std::uint64_t bytes = unit_bytes[static_cast<std::size_t>(first)];
    while (last < units &&
           bytes + unit_bytes[static_cast<std::size_t>(last)] <= budget) {
      bytes += unit_bytes[static_cast<std::size_t>(last++)];
    }
    timer.reset();
    const std::vector<Subgraph> subs =
        partition_subgraphs(g_, unit_of, units, first, last);
    std::vector<ComponentTask> tasks;
    // Unit u's tasks are [unit_tasks[u - first], unit_tasks[u - first + 1]).
    std::vector<std::size_t> unit_tasks{0};
    for (Index u = first; u < last; ++u) {
      make_tasks(subs[static_cast<std::size_t>(u - first)], u,
                 static_cast<std::uint64_t>(u), parent, opts_.block, tasks);
      unit_tasks.push_back(tasks.size());
    }
    extract_seconds += timer.seconds();
    timer.reset();
    run_tasks(tasks, opts_.threads);
    sparsify_seconds += timer.seconds();
    for (const ComponentTask& task : tasks) {
      result_.edges.insert(result_.edges.end(), task.selected.begin(),
                           task.selected.end());
    }
    for (Index u = first; u < last; ++u) {
      const auto i = static_cast<std::size_t>(u - first);
      result_.leaf_stats.push_back(fold_stats(
          u, subs[i],
          std::span(tasks).subspan(unit_tasks[i],
                                   unit_tasks[i + 1] - unit_tasks[i])));
    }
    release();
    first = last;
  }
  notify_stage("scale.extract", "scale.stage.extract.ns", extract_seconds);
  notify_stage("scale.block-sparsify", "scale.stage.block-sparsify.ns",
               sparsify_seconds);

  // Cut policy.
  timer.reset();
  std::vector<EdgeId> cut_kept;
  switch (opts_.cut_policy) {
    case CutPolicy::kKeepAll:
      cut_kept = std::move(cut);
      break;
    case CutPolicy::kFilter: {
      const Subgraph cut_graph = cut_subgraph(g_, unit_of);
      const SparsifyOptions& cut_opts =
          opts_.cut.has_value() ? *opts_.cut : opts_.block;
      // Cut streams start at the unit count so they never collide with
      // unit streams (even when the cut pass shares the block seed).
      std::vector<ComponentTask> tasks;
      make_tasks(cut_graph, kCutBlock, static_cast<std::uint64_t>(units),
                 Rng(cut_opts.seed), cut_opts, tasks);
      run_tasks(tasks, opts_.threads);
      for (const ComponentTask& task : tasks) {
        cut_kept.insert(cut_kept.end(), task.selected.begin(),
                        task.selected.end());
      }
      result_.cut_stats = fold_stats(kCutBlock, cut_graph, tasks);
      break;
    }
  }
  notify_stage("scale.cut-sparsify", "scale.stage.cut-sparsify.ns",
               timer.seconds());

  // Stitch. Postcondition: the sparsifier connects exactly what G
  // connects. Both cut policies satisfy it by construction (every unit
  // component and every cut-graph component keeps a spanning tree), so the
  // union-find pass is a check, not a repair.
  timer.reset();
  result_.edges.insert(result_.edges.end(), cut_kept.begin(), cut_kept.end());
  result_.cut_edges_kept = static_cast<EdgeId>(cut_kept.size());
  UnionFind uf(static_cast<Index>(g_.num_vertices()));
  for (const EdgeId e : result_.edges) {
    const Edge edge = g_.edge(e);
    uf.unite(static_cast<Index>(edge.u), static_cast<Index>(edge.v));
  }
  SSP_ASSERT(uf.num_sets() == roots, "scale driver lost connectivity");
  notify_stage("scale.stitch", "scale.stage.stitch.ns", timer.seconds());
}

HierarchicalResult hierarchical_sparsify(const Graph& g,
                                         const HierarchicalOptions& opts) {
  HierarchicalSparsifier driver(g, opts);
  driver.run();
  return driver.take_result();
}

HierarchicalResult hierarchical_sparsify(const storage::MappedGraph& g,
                                         const HierarchicalOptions& opts) {
  HierarchicalSparsifier driver(g.view(), opts);
  driver.set_release_hook([&g] { g.release_pages(); });
  driver.run();
  return driver.take_result();
}

}  // namespace ssp
