// serve-churn: an in-process `serve::Server` on a unix socket, two
// sessions on log-weight meshes, and a closed loop of four client
// connections — per session one writer committing mixed batches and one
// reader issuing `query edges` with a fixed think time.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/dynamic_sparsifier.hpp"
#include "dynamic/journal_wire.hpp"
#include "dynamic/update_journal.hpp"
#include "gates.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/mtx_io.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// The session graphs and the engine seed are fixed and the churn comes
// from the run seed: a simulator keeps its circuit and varies parameters.
// Set-up (each open runs an initial sparsification whose round count
// varies with the graph) then does the same work for every seed.
constexpr ssp::Vertex kSessionSide = 48;  // 2,304 vertices, 4,512 edges
constexpr std::uint64_t kSessionGraphSeed = 201;
constexpr std::uint64_t kEngineSeed = 42;
constexpr int kSessions = 2;
constexpr int kOpsPerBatch = 8;
constexpr std::size_t kMaxInserted = 16;  // writer-owned extra edges
constexpr double kReadThinkSeconds = 0.005;
constexpr int kWarmupCommits = 3;
const char* const kSocket = "serve.sock";
const char* const kSetupSocket = "setup.sock";

std::string session_name(int s) { return "s" + std::to_string(s); }
std::string session_file(int s) {
  return "session" + std::to_string(s) + ".mtx";
}

/// Value of `key=` in a status line (0 when absent).
double status_field(const std::string& status, const std::string& key) {
  const std::string needle = " " + key + "=";
  const auto at = status.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + at + needle.size(), nullptr);
}

/// Value of `key=` among `stats <session>` payload lines.
double payload_field(const std::vector<std::string>& payload,
                     const std::string& key) {
  for (const std::string& line : payload) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == '=') {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

bool count_reply(Report& rep, const ssp::serve::ClientResponse& reply) {
  rep.op(reply.ok());
  return reply.ok();
}

namespace {

const char* const kDynamicStages[] = {"validate", "apply-graph", "tree-repair",
                                      "rebind", "sparsify"};
const char* const kDynamicMetric[] = {"dynamic.validate_s", "dynamic.apply_s",
                                      "dynamic.tree_repair_s",
                                      "dynamic.rebind_s", "dynamic.sparsify_s"};

/// Generates one session's churn: mostly reweights of mesh edges, plus
/// inserts of diagonal edges the writer owns and deletes of those it
/// inserted in earlier batches, so a delete never disconnects the mesh.
class ChurnScript {
 public:
  ChurnScript(const ssp::Graph& mesh, ssp::Rng rng)
      : mesh_(mesh), rng_(rng) {}

  /// The op lines of the next batch. `commit_ok` must follow with the
  /// commit's outcome so the owned-edge set tracks what actually applied.
  std::vector<std::string> next_batch() {
    pending_inserts_.clear();
    pending_deletes_.clear();
    std::vector<std::string> ops;
    const int n_ins = inserted_.size() < kMaxInserted ? 2 : 1;
    for (int i = 0; i < n_ins; ++i) {
      for (;;) {
        const auto r = static_cast<ssp::Vertex>(
            rng_.uniform_int(0, kSessionSide - 2));
        const auto c = static_cast<ssp::Vertex>(
            rng_.uniform_int(0, kSessionSide - 2));
        const std::pair<ssp::Vertex, ssp::Vertex> e{
            r * kSessionSide + c, (r + 1) * kSessionSide + c + 1};
        if (inserted_.count(e) != 0 ||
            std::find(pending_inserts_.begin(), pending_inserts_.end(), e) !=
                pending_inserts_.end()) {
          continue;
        }
        pending_inserts_.push_back(e);
        ops.push_back("insert " + std::to_string(e.first) + " " +
                      std::to_string(e.second) + " " + weight());
        break;
      }
    }
    if (!inserted_.empty()) {
      auto it = inserted_.begin();
      std::advance(it, rng_.uniform_int(
                           0, static_cast<std::int64_t>(inserted_.size()) - 1));
      pending_deletes_.push_back(*it);
      ops.push_back("delete " + std::to_string(it->first) + " " +
                    std::to_string(it->second));
    }
    std::set<ssp::EdgeId> picked;
    while (static_cast<int>(ops.size()) < kOpsPerBatch) {
      const ssp::EdgeId e = rng_.uniform_int(0, mesh_.num_edges() - 1);
      if (!picked.insert(e).second) continue;
      const ssp::Edge& edge = mesh_.edge(e);
      ops.push_back("reweight " + std::to_string(edge.u) + " " +
                    std::to_string(edge.v) + " " + around(edge.weight));
    }
    return ops;
  }

  void commit_ok() {
    for (const auto& e : pending_inserts_) inserted_.insert(e);
    for (const auto& e : pending_deletes_) inserted_.erase(e);
  }

 private:
  std::string weight() {
    return ssp::format_journal_weight(
        std::exp(rng_.uniform(std::log(0.1), std::log(10.0))));
  }

  /// A parameter change: the nominal weight scaled by up to 2x either way.
  std::string around(double nominal) {
    return ssp::format_journal_weight(
        nominal * std::exp(rng_.uniform(-std::log(2.0), std::log(2.0))));
  }

  const ssp::Graph& mesh_;
  ssp::Rng rng_;
  std::set<std::pair<ssp::Vertex, ssp::Vertex>> inserted_;
  std::vector<std::pair<ssp::Vertex, ssp::Vertex>> pending_inserts_;
  std::vector<std::pair<ssp::Vertex, ssp::Vertex>> pending_deletes_;
};

/// One closed-loop window: its sample-name prefix ("" for the end-to-end
/// window, "traced." for the traced one) and whether it reads the
/// server-side split of every commit.
struct Window {
  std::string prefix;
  bool traced = false;
};

class ChurnLoop {
 public:
  ChurnLoop(const std::vector<ssp::Graph>& meshes, std::uint64_t seed,
            Report& rep)
      : rep_(rep) {
    for (int s = 0; s < kSessions; ++s) {
      scripts_.emplace_back(meshes[static_cast<std::size_t>(s)],
                            ssp::Rng(seed).split(20 + static_cast<std::uint64_t>(s)));
      writers_.push_back(connect_attached(s));
      readers_.push_back(connect_attached(s));
    }
  }

  /// Untimed warm-up commits and reads on every connection.
  void warm_up() {
    for (int s = 0; s < kSessions; ++s) {
      for (int i = 0; i < kWarmupCommits; ++i) {
        commit_batch(s, nullptr);
        count_reply(rep_,
                    readers_[static_cast<std::size_t>(s)].request("query edges"));
      }
    }
  }

  /// Runs the closed loop for `seconds`; returns completed commits.
  std::int64_t run(double seconds, const Window& w) {
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> commits{0};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([this, s, &stop, &commits, &w] {
        guarded([&] {
          while (!stop.load(std::memory_order_relaxed)) {
            if (commit_batch(s, &w)) commits.fetch_add(1);
          }
        });
      });
      threads.emplace_back([this, s, &stop, &w] {
        auto& client = readers_[static_cast<std::size_t>(s)];
        guarded([&] {
          while (!stop.load(std::memory_order_relaxed)) {
            const double t0 = now_s();
            {
              const Scope span("serve.query_edges");
              count_reply(rep_, client.request("query edges"));
            }
            rep_.sample(w.prefix + "read_ms", (now_s() - t0) * 1e3);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kReadThinkSeconds));
          }
        });
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    return commits.load();
  }

  ssp::serve::ServeClient& writer(int s) {
    return writers_[static_cast<std::size_t>(s)];
  }

 private:
  /// Runs a client thread's loop; a lost connection counts as a failed
  /// operation instead of escaping the thread.
  template <typename F>
  void guarded(F&& loop) {
    try {
      loop();
    } catch (const std::exception& e) {
      rep_.gate("client_connection", false, e.what());
    }
  }

  static ssp::serve::ServeClient connect_attached(int s) {
    auto client = ssp::serve::ServeClient::connect_unix(kSocket);
    const auto r = client.request("attach " + session_name(s));
    if (!r.ok()) throw std::runtime_error("attach failed: " + r.status);
    return client;
  }

  /// Buffers one batch and commits it; `w` null = warm-up (no samples).
  bool commit_batch(int s, const Window* w) {
    auto& client = writers_[static_cast<std::size_t>(s)];
    auto& script = scripts_[static_cast<std::size_t>(s)];
    bool ok = true;
    for (const std::string& line : script.next_batch()) {
      const double t0 = now_s();
      const bool line_ok = count_reply(rep_, client.request(line));
      if (w != nullptr) {
        rep_.sample(w->prefix + "op_rtt_ms", (now_s() - t0) * 1e3);
      }
      ok = ok && line_ok;
    }
    const double t0 = now_s();
    ssp::serve::ClientResponse reply;
    int span = -1;
    {
      const Scope commit_span("serve.commit");
      span = commit_span.id();
      reply = client.request("commit");
    }
    const double latency = now_s() - t0;
    if (!count_reply(rep_, reply) || !ok) return false;
    script.commit_ok();
    if (w == nullptr) return true;
    const double server_s = status_field(reply.status, "seconds");
    rep_.sample(w->prefix + "commit_ms", latency * 1e3);
    rep_.sample(w->prefix + "server_batch_s", server_s);
    if (w->traced) record_split(s, span, reply.status, latency, server_s);
    return true;
  }

  /// Reads the server-side stage split of the commit just made (`stats
  /// <session>` reports the session's latest batch, and only this writer
  /// commits to it). Spans of the commit and of this read share a request
  /// id built from the session and batch number.
  void record_split(int s, int commit_span, const std::string& status,
                    double latency, double server_s) {
    const auto batch = static_cast<std::int64_t>(status_field(status, "batch"));
    const std::int64_t request = s * 1000000 + batch;
    tracer().set_request(commit_span, request);
    ssp::serve::ClientResponse stats;
    {
      const Scope span("serve.stats", request);
      stats = writers_[static_cast<std::size_t>(s)].request(
          "stats " + session_name(s));
    }
    if (!count_reply(rep_, stats) ||
        static_cast<std::int64_t>(payload_field(stats.payload, "last.batch")) !=
            batch) {
      rep_.gate("serve_stats_matches_commit", false,
                "stats did not report batch " + std::to_string(batch));
      return;
    }
    double staged = 0.0;
    for (std::size_t k = 0; k < std::size(kDynamicStages); ++k) {
      const double sec = payload_field(
          stats.payload, std::string("last.stage.") + kDynamicStages[k] +
                             ".seconds");
      staged += sec;
      rep_.sample(kDynamicMetric[k], sec);
    }
    rep_.sample("dynamic.stage_coverage", server_s > 0 ? staged / server_s : 0);
    rep_.sample("dynamic.tree_swaps",
                payload_field(stats.payload, "last.tree_swaps"));
    rep_.sample("dynamic.dirty_fraction",
                payload_field(stats.payload, "last.dirty_fraction"));
    rep_.sample("serve.commit_wait_ms", (latency - server_s) * 1e3);
  }

  Report& rep_;
  std::vector<ChurnScript> scripts_;
  std::vector<ssp::serve::ServeClient> writers_;
  std::vector<ssp::serve::ServeClient> readers_;
};

/// A started server with both sessions open, as set-up leaves it.
struct Deployment {
  std::unique_ptr<ssp::serve::Server> server;
  std::optional<ssp::serve::ServeClient> admin;

  /// Closes the sessions and stops the server (no-op when not started).
  void stop() {
    if (!server) return;
    for (int s = 0; s < kSessions; ++s) {
      (void)admin->request("close " + session_name(s));
    }
    admin.reset();
    server->request_stop();
    server->wait();
    server.reset();
  }
};

/// One timed set-up: start a server on `socket`, connect, open both
/// sessions (each open loads its graph and runs the initial
/// sparsification). Adds the seconds to `*spent`.
Deployment deploy(ssp::serve::ServerConfig config, const char* socket,
                  Report& rep, double* spent) {
  config.socket_path = socket;
  Deployment d;
  const double t0 = now_s();
  d.server = std::make_unique<ssp::serve::Server>(config);
  d.server->start();
  d.admin.emplace(ssp::serve::ServeClient::connect_unix(socket));
  for (int s = 0; s < kSessions; ++s) {
    const auto r =
        d.admin->request("open " + session_name(s) + " " + session_file(s));
    if (!r.ok()) throw std::runtime_error("open failed: " + r.status);
  }
  const double dt = now_s() - t0;
  *spent += dt;
  rep.sample("setup_s", dt);
  return d;
}

std::vector<ssp::Edge> parse_rows(const std::vector<std::string>& lines) {
  std::vector<ssp::Edge> rows;
  rows.reserve(lines.size());
  for (const std::string& line : lines) {
    std::istringstream in(line);
    long long u = 0;
    long long v = 0;
    std::string w;
    in >> u >> v >> w;
    rows.push_back({static_cast<ssp::Vertex>(u), static_cast<ssp::Vertex>(v),
                    std::strtod(w.c_str(), nullptr)});
  }
  return rows;
}

/// Replays session `s`'s journal onto its base graph, rebuilds the
/// sparsifier cold with the dynamic layer's cold-equivalent options (the
/// base options, the canonical max-weight backbone, and the seed of the
/// last batch), and requires the served sparsifier to match it bit for
/// bit. Then verifies the served sparsifier's quality.
void verify_session(int s, std::uint64_t seed, ssp::serve::ServeClient& client,
                    Report& rep) {
  const std::string name = session_name(s);
  const auto journal = client.request("query journal");
  const auto edges = client.request("query edges");
  const auto quality = client.request("query quality");
  if (!journal.ok() || !edges.ok() || !quality.ok()) {
    rep.gate(name + "_readback", false, journal.status + " / " + edges.status);
    return;
  }
  std::ostringstream text;
  for (const std::string& line : journal.payload) text << line << '\n';
  std::istringstream in(text.str());
  const std::vector<ssp::JournalBatch> batches = ssp::parse_update_journal(in);

  ssp::Graph g = ssp::load_graph_mtx(session_file(s));
  for (const ssp::JournalBatch& b : batches) {
    ssp::apply_batch_to_graph(g, ssp::resolve_journal_batch(g, b));
  }
  ssp::SparsifyOptions cold = engine_options(seed);
  cold.backbone = ssp::BackboneKind::kMaxWeight;
  cold.seed = ssp::DynamicSparsifier::batch_seed(
      seed, static_cast<ssp::Index>(batches.size()));
  const ssp::SparsifyResult want = ssp::sparsify(g, cold);

  const std::vector<ssp::Edge> rows = parse_rows(edges.payload);
  const std::string diff = compare_rows(rows, edge_rows(g, want.edges));
  rep.gate(name + "_replay_matches_cold", diff.empty(),
           std::to_string(batches.size()) + " batches; " + diff);
  const std::string span = check_spanning_rows(g, rows);
  rep.gate(name + "_sparsifier_connected_spanning", span.empty(), span);
  rep.gate(name + "_reached_target",
           status_field(quality.status, "reached") == 1.0, quality.status);
  rep.sample("edges_per_vertex", static_cast<double>(rows.size()) /
                                     static_cast<double>(g.num_vertices()));
  ssp::Graph p(g.num_vertices());
  for (const ssp::Edge& e : rows) p.add_edge(e.u, e.v, e.weight);
  p.finalize();
  record_quality(g, p, status_field(quality.status, "sigma2"), rep);
}

}  // namespace

void serve_self_test(const std::function<void(bool, const char*)>& expect) {
  RunConfig cfg;
  cfg.seed = 3;
  prep_serve_churn(cfg);
  ssp::serve::ServerConfig config;
  config.socket_path = "selftest.sock";
  config.serve = ssp::serve::ServeOptions{}
                     .with_dynamic(ssp::DynamicOptions{}.with_base(
                         engine_options(cfg.seed)))
                     .with_max_sessions(1);
  ssp::serve::Server server(config);
  server.start();
  {
    auto client = ssp::serve::ServeClient::connect_unix(config.socket_path);
    Report rep;
    expect(count_reply(rep, client.request("open s0 " + session_file(0))),
           "opening a session counts as a good operation");
    expect(!count_reply(rep, client.request("open s1 " + session_file(1))),
           "a refused open (session table full) counts as failed");
    expect(count_reply(rep, client.request("reweight 0 2303 2")),
           "buffering an op counts as a good operation");
    expect(!count_reply(rep, client.request("commit")),
           "an err commit (op on a missing edge) counts as failed");
    expect(!count_reply(rep, client.request("bogus")),
           "an err reply to an unknown verb counts as failed");
    expect(rep.attempted() == 5 && rep.failed() == 3,
           "fail accounting: 3 of 5 operations failed");
  }
  server.request_stop();
  server.wait();
}

void prep_serve_churn(const RunConfig& /*cfg*/) {
  for (int s = 0; s < kSessions; ++s) {
    ssp::Rng rng(kSessionGraphSeed + static_cast<std::uint64_t>(s));
    ssp::save_graph_mtx(
        session_file(s),
        ssp::grid_2d(kSessionSide, kSessionSide,
                     ssp::WeightModel::log_uniform(0.1, 10.0), &rng));
  }
}

void run_serve_churn(const RunConfig& cfg, Report& rep) {
  ssp::serve::ServerConfig config;
  config.serve.dynamic =
      ssp::DynamicOptions{}.with_base(engine_options(kEngineSeed));

  // Set-up = start the server, connect, open both sessions. Repeated
  // before the window (the last deployment serves the measurement) and
  // again after it on a second socket, so that the samples span the run.
  Deployment live;
  double spent = 0.0;
  for (int i = 0; more_setup(i, spent); ++i) {
    live.stop();
    live = deploy(config, kSocket, rep, &spent);
  }

  std::vector<ssp::Graph> meshes;
  for (int s = 0; s < kSessions; ++s) {
    meshes.push_back(ssp::load_graph_mtx(session_file(s)));
  }
  // Client connections close before the server stops, so it drains at
  // once instead of waiting out its idle-connection grace period.
  std::optional<ChurnLoop> churn(std::in_place, meshes, cfg.seed, rep);
  ChurnLoop& loop = *churn;
  loop.warm_up();
  const std::int64_t commits = loop.run(cfg.seconds, Window{"", false});
  rep.sample("commits_per_s", static_cast<double>(commits) / cfg.seconds);
  if (cfg.trace) {
    ssp::obs::set_metrics_enabled(true);
    tracer().enable(true);
    const Counters before = read_counters();
    const double t0 = now_s();
    const std::int64_t traced_commits =
        loop.run(cfg.seconds, Window{"traced.", true});
    const double wall = now_s() - t0;
    const Counters after = read_counters();
    tracer().enable(false);
    ssp::obs::set_metrics_enabled(false);
    const double per = std::max<std::int64_t>(traced_commits, 1);
    rep.sample("dynamic.route_resparsify",
               delta(before, after, "dynamic.route.resparsify"));
    rep.sample("dynamic.route_tree_repair",
               delta(before, after, "dynamic.route.tree-repair"));
    rep.sample("dynamic.route_rebuild",
               delta(before, after, "dynamic.route.rebuild"));
    rep.sample("serve.backpressure_rejects",
               delta(before, after, "serve.backpressure.rejections"));
    record_engine_layers(before, after, wall, per, rep);
  }
  rep.value("peak_rss_mb", peak_rss_mib());
  for (int i = 0; i < kSetupRepeats; ++i) {
    deploy(config, kSetupSocket, rep, &spent).stop();
  }

  for (int s = 0; s < kSessions; ++s) {
    verify_session(s, kEngineSeed, loop.writer(s), rep);
  }
  churn.reset();
  live.stop();
}

}  // namespace perfbench
