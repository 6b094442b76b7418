// Tests for the serving subsystem (src/serve/): line framing across
// partial reads, the session table and its admission control, the
// per-connection protocol state machine, deterministic backpressure, and
// — the core contract — concurrent clients committing over real sockets
// producing a sparsifier bit-identical to replaying the committed journal
// offline through the dynamic layer, at thread counts 1 and 4. Everything
// runs in-process (library only), so the suite also runs in the TSan CI
// job where the tools are not built.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/dynamic_sparsifier.hpp"
#include "dynamic/update_journal.hpp"
#include "serve/client.hpp"
#include "serve/connection.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/session_store.hpp"
#include "util/parallel.hpp"

namespace ssp::serve {
namespace {

DynamicOptions test_dynamic_options(double sigma2 = 30.0) {
  DynamicOptions opts;
  opts.base = SparsifyOptions{}.with_sigma2(sigma2).with_seed(42);
  return opts;
}

ServeOptions test_serve_options() {
  return ServeOptions{}.with_dynamic(test_dynamic_options());
}

/// A short unix-socket path (sun_path is ~100 bytes; the build tree's
/// path may not fit).
std::string temp_socket_path(const char* tag) {
  std::ostringstream os;
  os << "/tmp/ssp_serve_" << tag << "_" << ::getpid() << ".sock";
  return os.str();
}

// ---- Line framing -----------------------------------------------------------

TEST(Framing, ReassemblesPartialLinesAcrossReads) {
  LineFramer framer;
  EXPECT_TRUE(framer.push("ins").empty());
  EXPECT_EQ(framer.partial(), "ins");
  const auto lines = framer.push("ert 0 1 2.5\ncom");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "insert 0 1 2.5");
  EXPECT_EQ(framer.partial(), "com");
  const auto rest = framer.push("mit\n");
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], "commit");
  EXPECT_TRUE(framer.partial().empty());
}

TEST(Framing, SplitsManyLinesPerReadAndStripsCarriageReturns) {
  LineFramer framer;
  const auto lines = framer.push("ping\r\nquery stats\n\nquit\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "ping");
  EXPECT_EQ(lines[1], "query stats");
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(lines[3], "quit");
}

TEST(Framing, RejectsOversizedLines) {
  LineFramer framer(16);
  // Oversized without a terminator: rejected while still assembling.
  EXPECT_THROW((void)framer.push(std::string(17, 'x')), FramingError);
  EXPECT_TRUE(framer.partial().empty());  // poisoned buffer was dropped
  // Oversized with a terminator: rejected when the line completes.
  EXPECT_THROW((void)framer.push(std::string(20, 'y') + "\n"), FramingError);
  // The framer stays usable for fresh input afterwards.
  const auto ok = framer.push("ping\n");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0], "ping");
}

TEST(Protocol, StatusHelpers) {
  EXPECT_TRUE(is_ok("ok"));
  EXPECT_TRUE(is_ok("ok n=3 commits=1"));
  EXPECT_FALSE(is_ok("okay"));
  EXPECT_FALSE(is_ok("err parse: nope"));
  EXPECT_EQ(payload_count("ok n=3 commits=1").value_or(0), 3u);
  EXPECT_EQ(payload_count("ok batch=2").has_value(), false);
  EXPECT_EQ(error_line("parse", "bad\nline"), "err parse: bad line");
}

// ---- Graph sources ----------------------------------------------------------

TEST(GraphSource, GenSpecsAreDeterministic) {
  const Graph a = load_session_graph("gen:grid2d:6x5:7");
  const Graph b = load_session_graph("gen:grid2d:6x5:7");
  ASSERT_EQ(a.num_vertices(), 30);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  bool identical = true;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    identical = identical && a.edge(e).u == b.edge(e).u &&
                a.edge(e).v == b.edge(e).v &&
                a.edge(e).weight == b.edge(e).weight;
  }
  EXPECT_TRUE(identical);
  // A different seed yields different weights.
  const Graph c = load_session_graph("gen:grid2d:6x5:8");
  bool differs = false;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    differs = differs || a.edge(e).weight != c.edge(e).weight;
  }
  EXPECT_TRUE(differs);
  // Every family parses.
  EXPECT_GT(load_session_graph("gen:tri:5x5").num_edges(), 0);
  EXPECT_GT(load_session_graph("gen:ba:32:2").num_edges(), 0);
  EXPECT_GT(load_session_graph("gen:planted:64:4").num_edges(), 0);
}

TEST(GraphSource, RejectsMalformedSpecs) {
  EXPECT_THROW((void)load_session_graph("gen:grid2d"), std::invalid_argument);
  EXPECT_THROW((void)load_session_graph("gen:grid2d:6"),
               std::invalid_argument);
  EXPECT_THROW((void)load_session_graph("gen:grid2d:axb"),
               std::invalid_argument);
  EXPECT_THROW((void)load_session_graph("gen:grid2d:1x5"),
               std::invalid_argument);
  EXPECT_THROW((void)load_session_graph("gen:grid2d:6x5:7:9"),
               std::invalid_argument);
  EXPECT_THROW((void)load_session_graph("gen:nosuch:6x5"),
               std::invalid_argument);
  EXPECT_THROW((void)load_session_graph("gen:ba:32"), std::invalid_argument);
  EXPECT_THROW((void)load_session_graph("gen:ba:32:-1"),
               std::invalid_argument);
  EXPECT_THROW((void)load_session_graph("/no/such/file.mtx"),
               std::runtime_error);
}

// ---- Options validation -----------------------------------------------------

TEST(ServeOptionsTest, ValidatesBounds) {
  EXPECT_NO_THROW(test_serve_options().validate());
  EXPECT_THROW(ServeOptions{}.with_max_sessions(0), std::invalid_argument);
  EXPECT_THROW(ServeOptions{}.with_max_queued_batches(0),
               std::invalid_argument);
  EXPECT_THROW(ServeOptions{}.with_drain_seconds(-1.0),
               std::invalid_argument);

  ServerConfig config;
  config.serve = test_serve_options();
  EXPECT_NO_THROW(config.validate());
  config.tcp_port = 70000;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.tcp_port = -1;
  config.socket_path = "";
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.socket_path = std::string(200, 'x');
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.socket_path = "ok.sock";
  config.max_clients = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.max_clients = 4;
  config.max_line_bytes = 8;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---- Session table ----------------------------------------------------------

TEST(Sessions, OpenAttachCloseLifecycle) {
  SessionManager manager(test_serve_options());
  const auto s = manager.open("g1", "gen:grid2d:5x5");
  EXPECT_EQ(s->name(), "g1");
  EXPECT_EQ(manager.size(), 1);
  EXPECT_EQ(manager.attach("g1"), s);
  EXPECT_EQ(manager.names(), std::vector<std::string>{"g1"});

  EXPECT_THROW((void)manager.open("g1", "gen:grid2d:5x5"),
               std::runtime_error);  // duplicate
  EXPECT_THROW((void)manager.open("bad name!", "gen:grid2d:5x5"),
               std::invalid_argument);
  EXPECT_THROW((void)manager.open("", "gen:grid2d:5x5"),
               std::invalid_argument);
  EXPECT_THROW((void)manager.attach("nope"), std::runtime_error);

  manager.close("g1");
  EXPECT_EQ(manager.size(), 0);
  EXPECT_TRUE(s->closed());
  EXPECT_THROW((void)s->info(), std::runtime_error);
  EXPECT_THROW(manager.close("g1"), std::runtime_error);
}

TEST(Sessions, FailedOpenReleasesTheReservedName) {
  SessionManager manager(test_serve_options());
  EXPECT_THROW((void)manager.open("g1", "gen:grid2d:bogus"),
               std::invalid_argument);
  EXPECT_EQ(manager.size(), 0);
  EXPECT_NO_THROW((void)manager.open("g1", "gen:grid2d:5x5"));
}

TEST(Sessions, AdmissionCapRefusesTheOverflowOpen) {
  SessionManager manager(test_serve_options().with_max_sessions(1));
  (void)manager.open("g1", "gen:grid2d:5x5");
  EXPECT_THROW((void)manager.open("g2", "gen:grid2d:5x5"),
               std::runtime_error);
  manager.close("g1");
  EXPECT_NO_THROW((void)manager.open("g2", "gen:grid2d:5x5"));
}

TEST(Sessions, CommitMatchesOfflineReplayAndJournalsApplyOrder) {
  SessionManager manager(test_serve_options());
  const auto s = manager.open("g1", "gen:grid2d:8x8");

  JournalBatch b1;
  b1.ops.push_back({JournalOp::Kind::kReweight, 0, 1, 3.5});
  b1.ops.push_back({JournalOp::Kind::kInsert, 0, 63, 1.25});
  const CommitOutcome o1 = s->commit(b1);
  ASSERT_TRUE(o1.accepted);
  EXPECT_EQ(o1.stats.batch, 1);

  JournalBatch b2;
  b2.ops.push_back({JournalOp::Kind::kDelete, 0, 63, 0.0});
  ASSERT_TRUE(s->commit(b2).accepted);

  const std::vector<std::string> journal = s->journal_lines();
  ASSERT_EQ(journal.size(), 5u);  // 2 ops + commit + 1 op + commit
  EXPECT_EQ(journal[2], "commit");
  EXPECT_EQ(journal.back(), "commit");

  // Offline replay of the journal text is bit-identical.
  std::ostringstream text;
  for (const std::string& line : journal) text << line << "\n";
  std::istringstream in(text.str());
  DynamicSparsifier offline(load_session_graph("gen:grid2d:8x8"),
                            test_dynamic_options());
  for (const JournalBatch& batch : parse_update_journal(in)) {
    offline.apply(resolve_journal_batch(offline.graph(), batch));
  }
  const std::vector<Edge> live = s->sparsifier_edges();
  ASSERT_EQ(static_cast<EdgeId>(live.size()), offline.result().num_edges());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Edge off = offline.graph().edge(offline.result().edges[i]);
    EXPECT_EQ(live[i].u, off.u);
    EXPECT_EQ(live[i].v, off.v);
    EXPECT_EQ(live[i].weight, off.weight);
  }

  const SessionInfo info = s->info();
  EXPECT_EQ(info.commits, 2);
  EXPECT_EQ(info.batches, 3);  // initial build + 2 commits
}

TEST(Sessions, ResolveFailureLeavesTheSessionUntouched) {
  SessionManager manager(test_serve_options());
  const auto s = manager.open("g1", "gen:grid2d:5x5");
  JournalBatch bad;
  bad.ops.push_back({JournalOp::Kind::kDelete, 0, 24, 0.0});  // no such edge
  EXPECT_THROW((void)s->commit(bad), std::runtime_error);
  EXPECT_TRUE(s->journal_lines().empty());
  EXPECT_EQ(s->info().commits, 0);
  // And the queue slot was released: a valid commit still goes through.
  JournalBatch good;
  good.ops.push_back({JournalOp::Kind::kReweight, 0, 1, 2.0});
  EXPECT_TRUE(s->commit(good).accepted);
}

/// Blocks inside the dynamic layer's on_update callback until released —
/// holds a commit "applying" so a concurrent commit deterministically
/// observes a full queue.
class BlockingObserver : public DynamicObserver {
 public:
  void on_update(const UpdateStats& stats) override {
    std::unique_lock<std::mutex> lk(mu_);
    if (stats.batch == 0) return;  // initial build: don't block
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lk, [this] { return released_; });
  }

  void wait_until_blocked() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return blocked_; });
  }

  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool released_ = false;
};

TEST(Sessions, BackpressureRejectsBeforeWaiting) {
  SessionManager manager(
      test_serve_options().with_max_queued_batches(1));
  const auto s = manager.open("g1", "gen:grid2d:5x5");
  BlockingObserver observer;
  s->set_observer(&observer);

  JournalBatch slow;
  slow.ops.push_back({JournalOp::Kind::kReweight, 0, 1, 2.0});
  std::thread committer([&] { (void)s->commit(slow); });
  observer.wait_until_blocked();  // the commit is mid-apply, queue full

  JournalBatch rejected;
  rejected.ops.push_back({JournalOp::Kind::kReweight, 0, 5, 3.0});
  const CommitOutcome out = s->commit(rejected);
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.queued, 1);

  observer.release();
  committer.join();
  s->set_observer(nullptr);
  // The queue drained: the same batch is accepted now.
  EXPECT_TRUE(s->commit(rejected).accepted);
  EXPECT_EQ(s->info().commits, 2);
}

// ---- Connection protocol ----------------------------------------------------

TEST(Protocol, ConnectionLifecycleAndErrors) {
  SessionManager manager(test_serve_options());
  Connection conn(manager);

  EXPECT_EQ(conn.handle_line("").status, "ok blank");
  EXPECT_EQ(conn.handle_line("% comment only").status, "ok blank");
  EXPECT_EQ(conn.handle_line("ping").status, "ok pong");

  // Reads and mutations need an attached session.
  EXPECT_EQ(conn.handle_line("query stats").status.rfind("err error:", 0), 0u);
  EXPECT_EQ(conn.handle_line("insert 0 1 2.0").status.rfind("err error:", 0),
            0u);

  const Reply open = conn.handle_line("open g1 gen:grid2d:5x5");
  EXPECT_EQ(open.status.rfind("ok session=g1 vertices=25", 0), 0u);
  EXPECT_TRUE(conn.attached());

  // Buffered ops count up; commit applies them as one batch.
  EXPECT_EQ(conn.handle_line("reweight 0 1 2.5").status, "ok queued=1");
  EXPECT_EQ(conn.handle_line("insert 0 24 1.5").status, "ok queued=2");
  EXPECT_EQ(conn.pending_ops(), 2);
  const Reply commit = conn.handle_line("commit");
  EXPECT_EQ(commit.status.rfind("ok batch=1 ", 0), 0u);
  EXPECT_EQ(conn.pending_ops(), 0);
  EXPECT_EQ(conn.handle_line("commit").status, "ok batch=empty");

  // Query surfaces.
  const Reply edges = conn.handle_line("query edges");
  EXPECT_EQ(payload_count(edges.status).value_or(0), edges.payload.size());
  EXPECT_GT(edges.payload.size(), 0u);
  const Reply journal = conn.handle_line("query journal");
  ASSERT_EQ(journal.payload.size(), 3u);
  EXPECT_EQ(journal.payload[0], "reweight 0 1 2.5");
  EXPECT_EQ(journal.payload[2], "commit");
  EXPECT_EQ(conn.handle_line("query stats").status.rfind("ok batches=2", 0),
            0u);
  EXPECT_EQ(conn.handle_line("query quality").status.rfind("ok sigma2=", 0),
            0u);
  EXPECT_EQ(conn.handle_line("query bogus").status.rfind("err protocol:", 0),
            0u);

  // sessions / attach / close / quit.
  const Reply sessions = conn.handle_line("sessions");
  ASSERT_EQ(sessions.payload.size(), 1u);
  EXPECT_EQ(sessions.payload[0], "g1");
  EXPECT_EQ(conn.handle_line("attach g1").status.rfind("ok session=g1", 0),
            0u);
  EXPECT_EQ(conn.handle_line("close").status, "ok closed=g1");
  EXPECT_FALSE(conn.attached());
  const Reply quit = conn.handle_line("quit");
  EXPECT_EQ(quit.status, "ok bye");
  EXPECT_TRUE(quit.close);
}

TEST(Protocol, ErrorsNameTheRequestLineAndKeepCategories) {
  SessionManager manager(test_serve_options());
  Connection conn(manager);
  (void)conn.handle_line("open g1 gen:grid2d:5x5");  // request line 1

  // Parse errors echo the 1-based request line number and the text.
  const Reply bad = conn.handle_line("insert 0 zero 2.0");  // line 2
  EXPECT_EQ(bad.status.rfind("err parse:", 0), 0u);
  EXPECT_NE(bad.status.find("line 2"), std::string::npos);
  EXPECT_NE(bad.status.find("insert 0 zero 2.0"), std::string::npos);

  EXPECT_EQ(conn.handle_line("frobnicate").status.rfind("err protocol:", 0),
            0u);
  EXPECT_EQ(conn.handle_line("open g1").status.rfind("err protocol:", 0), 0u);
  EXPECT_EQ(conn.handle_line("open g1 gen:grid2d:5x5").status.rfind(
                "err error: session 'g1' already exists", 0),
            0u);
  EXPECT_EQ(
      conn.handle_line("open g2 gen:bogus:1x1").status.rfind("err invalid:",
                                                             0),
      0u);
  EXPECT_EQ(conn.handle_line("attach nope").status.rfind("err error:", 0),
            0u);

  // A resolve failure mid-commit drops the poisoned buffer.
  (void)conn.handle_line("delete 0 24");  // no such edge in a 5x5 grid
  EXPECT_EQ(conn.pending_ops(), 1);
  EXPECT_EQ(conn.handle_line("commit").status.rfind("err error:", 0), 0u);
  EXPECT_EQ(conn.pending_ops(), 0);
  EXPECT_EQ(conn.handle_line("commit").status, "ok batch=empty");
}

TEST(Protocol, SnapshotWritesTheSparsifier) {
  SessionManager manager(test_serve_options());
  Connection conn(manager);
  (void)conn.handle_line("open g1 gen:grid2d:6x6");
  const std::string path =
      "/tmp/ssp_serve_snapshot_" + std::to_string(::getpid()) + ".mtx";
  const Reply snap = conn.handle_line("snapshot " + path);
  EXPECT_EQ(snap.status.rfind("ok wrote=", 0), 0u);
  const Graph round_trip = load_session_graph(path);
  EXPECT_EQ(round_trip.num_vertices(), 36);
  EXPECT_EQ(round_trip.num_edges(),
            manager.attach("g1")->info().sparsifier_edges);
  std::remove(path.c_str());
}

// ---- Socket server ----------------------------------------------------------

ServerConfig unix_config(const std::string& path) {
  ServerConfig config;
  config.socket_path = path;
  config.serve = test_serve_options();
  return config;
}

TEST(Server, ServesOverUnixAndTcpSockets) {
  for (const bool tcp : {false, true}) {
    const std::string path = temp_socket_path("transport");
    ServerConfig config = unix_config(path);
    if (tcp) config.tcp_port = 0;  // ephemeral
    Server server(config);
    server.start();
    {
      ServeClient client = tcp ? ServeClient::connect_tcp(server.tcp_port())
                               : ServeClient::connect_unix(path);
      EXPECT_EQ(client.request("ping").status, "ok pong");
      const auto open = client.request("open g1 gen:grid2d:5x5");
      EXPECT_TRUE(open.ok()) << open.status;
      (void)client.request("reweight 0 1 2.0");
      const auto commit = client.request("commit");
      EXPECT_TRUE(commit.ok()) << commit.status;
      const auto journal = client.request("query journal");
      ASSERT_EQ(journal.payload.size(), 2u);
      EXPECT_EQ(journal.payload[0], "reweight 0 1 2");
      EXPECT_EQ(client.request("quit").status, "ok bye");
    }
    server.request_stop();
    server.wait();
    EXPECT_FALSE(server.running());
  }
}

TEST(Server, RejectsOversizedRequestLines) {
  const std::string path = temp_socket_path("framing");
  ServerConfig config = unix_config(path);
  config.max_line_bytes = 64;
  Server server(config);
  server.start();
  {
    ServeClient client = ServeClient::connect_unix(path);
    const auto resp = client.request(std::string(100, 'x'));
    EXPECT_EQ(resp.status.rfind("err framing:", 0), 0u);
    // The server dropped the connection: the next request fails.
    EXPECT_THROW((void)client.request("ping"), std::runtime_error);
  }
  server.request_stop();
  server.wait();
}

TEST(Server, RefusesClientsBeyondTheAdmissionCap) {
  const std::string path = temp_socket_path("limit");
  ServerConfig config = unix_config(path);
  config.max_clients = 1;
  Server server(config);
  server.start();
  {
    ServeClient first = ServeClient::connect_unix(path);
    ASSERT_EQ(first.request("ping").status, "ok pong");
    ServeClient second = ServeClient::connect_unix(path);
    // The refusal line may race the connection teardown; both surfaces —
    // an `err limit` status or a dropped connection — are a refusal.
    try {
      const auto resp = second.request("ping");
      EXPECT_EQ(resp.status.rfind("err limit:", 0), 0u) << resp.status;
    } catch (const std::runtime_error&) {
      // connection already closed — equally refused
    }
  }
  server.request_stop();
  server.wait();
}

/// The tentpole contract, end to end over real sockets: several clients
/// interleave commits against one session; whatever order the server
/// observed, replaying its committed journal offline reproduces the
/// sparsifier bit for bit — at 1 and 4 engine threads.
TEST(Server, ConcurrentCommitsMatchOfflineReplay) {
  for (const int threads : {1, 4}) {
    set_default_threads(threads);
    const std::string path = temp_socket_path("diff");
    Server server(unix_config(path));
    server.start();

    {
      ServeClient admin = ServeClient::connect_unix(path);
      const auto open = admin.request("open g1 gen:grid2d:8x8");
      ASSERT_TRUE(open.ok()) << open.status;

      // 4 clients × 3 commits, each reweighting a disjoint set of
      // horizontal edges of the 8x8 grid (rows 2k and 2k+1 belong to
      // client k), so every interleaving resolves.
      constexpr int kClients = 4;
      constexpr int kCommits = 3;
      std::vector<std::thread> workers;
      std::vector<int> failures(kClients, 0);
      for (int c = 0; c < kClients; ++c) {
        workers.emplace_back([&, c] {
          try {
            ServeClient client = ServeClient::connect_unix(path);
            if (!client.request("attach g1").ok()) {
              failures[c] = 1;
              return;
            }
            for (int commit = 0; commit < kCommits; ++commit) {
              for (int row = 2 * c; row < 2 * c + 2; ++row) {
                for (int col = 0; col < 7; ++col) {
                  const int u = row * 8 + col;
                  std::ostringstream op;
                  op << "reweight " << u << ' ' << (u + 1) << ' '
                     << (1.0 + 0.25 * commit + 0.01 * col);
                  if (!client.request(op.str()).ok()) failures[c] = 1;
                }
              }
              auto resp = client.request("commit");
              // Bounded retry under backpressure (the buffer is kept).
              for (int retry = 0;
                   retry < 100 &&
                   resp.status.rfind("err backpressure:", 0) == 0;
                   ++retry) {
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                resp = client.request("commit");
              }
              if (!resp.ok()) failures[c] = 1;
            }
          } catch (const std::exception&) {
            failures[c] = 1;
          }
        });
      }
      for (auto& w : workers) w.join();
      for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(failures[c], 0) << "client " << c << " failed";
      }

      const auto journal = admin.request("query journal");
      ASSERT_TRUE(journal.ok()) << journal.status;
      ASSERT_EQ(journal.payload.size(),
                static_cast<std::size_t>(kClients * kCommits * (14 + 1)));

      // Offline replay of exactly what the server says it applied.
      std::ostringstream text;
      for (const std::string& line : journal.payload) text << line << "\n";
      std::istringstream in(text.str());
      DynamicSparsifier offline(load_session_graph("gen:grid2d:8x8"),
                                test_dynamic_options());
      for (const JournalBatch& batch : parse_update_journal(in)) {
        offline.apply(resolve_journal_batch(offline.graph(), batch));
      }

      const auto live = admin.request("query edges");
      ASSERT_TRUE(live.ok()) << live.status;
      ASSERT_EQ(static_cast<EdgeId>(live.payload.size()),
                offline.result().num_edges());
      for (std::size_t i = 0; i < live.payload.size(); ++i) {
        const Edge off = offline.graph().edge(offline.result().edges[i]);
        std::ostringstream row;
        row << off.u << ' ' << off.v << ' '
            << format_journal_weight(off.weight);
        EXPECT_EQ(live.payload[i], row.str()) << "edge " << i << " at "
                                              << threads << " threads";
      }
    }
    server.request_stop();
    server.wait();
  }
  set_default_threads(0);
}

// ---- On-disk session store: torn journal tails ------------------------------

std::string temp_state_dir(const char* tag) {
  std::ostringstream os;
  os << "/tmp/ssp_serve_state_" << tag << "_" << ::getpid();
  return os.str();
}

TEST(SessionStore, TornTailIsParsedOutAndTruncatedOnDisk) {
  const std::string dir = temp_state_dir("torn");
  std::filesystem::create_directories(dir);
  const std::string path = session_journal_path(dir, "g");
  create_session_journal(path, "gen:grid2d:4x4:7");
  {
    std::ofstream out(path, std::ios::app);
    out << "reweight 0 1 2.5\ncommit\n";        // durable batch
    out << "reweight 1 2 9.0\nreweight 2 3 4";  // torn mid-append
  }
  const StoredSession stored = read_stored_session(path);
  EXPECT_EQ(stored.source, "gen:grid2d:4x4:7");
  ASSERT_EQ(stored.batches.size(), 1u);
  ASSERT_EQ(stored.batches[0].ops.size(), 1u);

  truncate_stored_session(path, stored);
  EXPECT_EQ(std::filesystem::file_size(path), stored.committed_bytes);
  // After the cut, fresh appends follow the last commit directly — a new
  // committed batch holds only its own ops, never the stale tail's.
  {
    std::ofstream out(path, std::ios::app);
    out << "reweight 4 5 6.5\ncommit\n";
  }
  const StoredSession again = read_stored_session(path);
  ASSERT_EQ(again.batches.size(), 2u);
  ASSERT_EQ(again.batches[1].ops.size(), 1u);
  EXPECT_EQ(again.batches[1].ops[0].u, 4);
  EXPECT_EQ(again.batches[1].ops[0].v, 5);
  std::filesystem::remove_all(dir);
}

TEST(SessionStore, CommitMissingItsNewlineIsTorn) {
  // A `commit` whose own newline never reached the disk is not durable:
  // replaying it would diverge from the file the next append produces
  // ("commitreweight ..." on one line).
  const std::string dir = temp_state_dir("nonl");
  std::filesystem::create_directories(dir);
  const std::string path = session_journal_path(dir, "g");
  create_session_journal(path, "gen:grid2d:4x4:7");
  const auto header_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(path));
  {
    std::ofstream out(path, std::ios::app);
    out << "reweight 0 1 2.5\ncommit";  // newline lost in the crash
  }
  const StoredSession stored = read_stored_session(path);
  EXPECT_TRUE(stored.batches.empty());
  EXPECT_EQ(stored.committed_bytes, header_bytes);
  truncate_stored_session(path, stored);
  EXPECT_EQ(std::filesystem::file_size(path), header_bytes);
  std::filesystem::remove_all(dir);
}

TEST(SessionStore, StatsTotalSecondsIsTheHistorySumAcrossARestart) {
  // `stats` reports the per-batch seconds summed in apply order — the
  // initial build's, then each commit's — and a warm restart from the
  // final checkpoint resumes the same running total.
  const std::string dir = temp_state_dir("total");
  std::filesystem::remove_all(dir);
  const ServeOptions opts = ServeOptions{}
                                .with_dynamic(test_dynamic_options())
                                .with_state_dir(dir);
  const auto commit_reweight = [](Session& s, Vertex u, double w) {
    JournalBatch b;
    b.ops.push_back({JournalOp::Kind::kReweight, u, u + 1, w, 0});
    const CommitOutcome o = s.commit(b);
    EXPECT_TRUE(o.accepted);
    return o.stats.seconds;
  };
  double expected = 0.0;
  {
    SessionManager mgr(opts);
    const auto s = mgr.open("g", "gen:grid2d:6x6:3");
    expected = s->info().last_seconds;  // the initial build
    EXPECT_EQ(s->info().total_seconds, expected);
    for (Vertex u = 0; u < 5; ++u) {
      expected += commit_reweight(*s, u, 1.5 + u);
      EXPECT_EQ(s->info().total_seconds, expected);
    }
    mgr.close_all();  // final checkpoint: the restart replays no tail
  }
  SessionManager mgr(opts);
  ASSERT_EQ(mgr.restore_all().size(), 1u);
  const auto s = mgr.attach("g");
  EXPECT_EQ(s->info().commits, 5);
  EXPECT_EQ(s->info().total_seconds, expected);
  expected += commit_reweight(*s, 6, 0.75);
  EXPECT_EQ(s->info().total_seconds, expected);
  std::filesystem::remove_all(dir);
}

TEST(SessionStore, RestartAfterCrashDoesNotMergeTornOpsIntoNextBatch) {
  const std::string dir = temp_state_dir("restart");
  std::filesystem::remove_all(dir);
  const ServeOptions opts = ServeOptions{}
                                .with_dynamic(test_dynamic_options())
                                .with_state_dir(dir);
  {
    SessionManager mgr(opts);
    const auto s = mgr.open("g", "gen:grid2d:4x4:7");
    JournalBatch b;
    b.ops.push_back({JournalOp::Kind::kReweight, 0, 1, 2.5, 0});
    ASSERT_TRUE(s->commit(b).accepted);
    // Hard crash mid-append: a torn op lands after the commit and the
    // manager is destroyed without close() (no final checkpoint).
    std::ofstream out(session_journal_path(dir, "g"), std::ios::app);
    out << "reweight 1 2 9.0\n";
  }
  {
    SessionManager mgr(opts);
    ASSERT_EQ(mgr.restore_all().size(), 1u);
    const auto s = mgr.attach("g");
    JournalBatch b;
    b.ops.push_back({JournalOp::Kind::kReweight, 2, 3, 4.5, 0});
    ASSERT_TRUE(s->commit(b).accepted);
    // Crash again before any close().
  }
  // The file now holds exactly the two committed batches: the torn op
  // neither replayed nor merged into the second life's batch.
  const StoredSession stored =
      read_stored_session(session_journal_path(dir, "g"));
  ASSERT_EQ(stored.batches.size(), 2u);
  ASSERT_EQ(stored.batches[0].ops.size(), 1u);
  ASSERT_EQ(stored.batches[1].ops.size(), 1u);
  EXPECT_EQ(stored.batches[1].ops[0].u, 2);
  EXPECT_EQ(stored.batches[1].ops[0].v, 3);

  // A third life restores to the same bits as an offline replay of those
  // two batches over the source graph.
  SessionManager mgr(opts);
  ASSERT_EQ(mgr.restore_all().size(), 1u);
  const auto s = mgr.attach("g");
  EXPECT_EQ(s->journal_lines().size(), 4u);  // op, commit, op, commit
  DynamicSparsifier offline(load_session_graph("gen:grid2d:4x4:7"),
                            test_dynamic_options());
  for (const JournalBatch& batch : stored.batches) {
    offline.apply(resolve_journal_batch(offline.graph(), batch));
  }
  EXPECT_EQ(s->info().sparsifier_edges, offline.result().num_edges());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ssp::serve
