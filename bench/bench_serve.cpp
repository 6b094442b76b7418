// bench_serve — load generator for the serving daemon (src/serve/).
//
// Runs an in-process Server on a unix socket and drives it with
// N sessions × M clients: every client attaches to its session, then
// issues commit after commit of reweight batches (disjoint edge rows per
// client, so any interleaving resolves). Reports per-commit latency
// (p50/p99) and sustained throughput (commits/sec, updates/sec) for the
// configs 1×1, 4×4, and 16×4 into BENCH_bench_serve.json.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/timer.hpp"

namespace {

using ssp::bench::Json;

constexpr int kGridSide = 16;        // per-session graph: 16x16 grid
constexpr int kCommitsPerClient = 6;
constexpr int kOpsPerCommit = 8;

struct Config {
  int sessions;
  int clients_per_session;
};

struct RunResult {
  std::vector<double> commit_seconds;  // one entry per commit, all clients
  double wall_seconds = 0.0;
  int failures = 0;
};

/// One client: attach, then kCommitsPerClient reweight-only commits over
/// the client's own grid rows (disjoint across clients of a session).
void run_client(const std::string& socket_path, const std::string& session,
                int client, int clients_per_session,
                std::vector<double>& latencies, int& failures) {
  try {
    ssp::serve::ServeClient conn =
        ssp::serve::ServeClient::connect_unix(socket_path);
    if (!conn.request("attach " + session).ok()) {
      ++failures;
      return;
    }
    const int rows_per_client = kGridSide / clients_per_session;
    const int row0 = client * rows_per_client;
    for (int commit = 0; commit < kCommitsPerClient; ++commit) {
      for (int op = 0; op < kOpsPerCommit; ++op) {
        const int row = row0 + (op % rows_per_client);
        const int col = (commit * kOpsPerCommit + op) % (kGridSide - 1);
        const int u = row * kGridSide + col;
        std::ostringstream line;
        line << "reweight " << u << ' ' << (u + 1) << ' '
             << (1.0 + 0.001 * (commit * kOpsPerCommit + op + 1));
        if (!conn.request(line.str()).ok()) ++failures;
      }
      ssp::WallTimer timer;
      auto resp = conn.request("commit");
      while (resp.status.rfind("err backpressure:", 0) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        resp = conn.request("commit");
      }
      latencies.push_back(timer.seconds());
      if (!resp.ok()) ++failures;
    }
    (void)conn.request("quit");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "client %s/%d: %s\n", session.c_str(), client,
                 e.what());
    ++failures;
  }
}

RunResult run_config(const Config& config) {
  const std::string socket_path =
      "/tmp/ssp_bench_serve_" + std::to_string(::getpid()) + ".sock";
  ssp::serve::ServerConfig server_config;
  server_config.socket_path = socket_path;
  server_config.max_clients = config.sessions * config.clients_per_session + 8;
  server_config.serve =
      ssp::serve::ServeOptions{}
          .with_dynamic(ssp::DynamicOptions{}.with_base(
              ssp::SparsifyOptions{}.with_sigma2(30.0).with_seed(42)))
          .with_max_sessions(config.sessions);
  ssp::serve::Server server(server_config);
  server.start();

  RunResult result;
  {
    // Session opens are the expensive part (initial sparsification) —
    // done up front so the measured window is pure commit traffic.
    ssp::serve::ServeClient admin =
        ssp::serve::ServeClient::connect_unix(socket_path);
    for (int s = 0; s < config.sessions; ++s) {
      std::ostringstream open;
      open << "open s" << s << " gen:grid2d:" << kGridSide << 'x' << kGridSide
           << ':' << (s + 1);
      if (!admin.request(open.str()).ok()) ++result.failures;
    }

    const int total_clients = config.sessions * config.clients_per_session;
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(total_clients));
    std::vector<int> failures(static_cast<std::size_t>(total_clients), 0);
    std::vector<std::thread> workers;
    ssp::WallTimer wall;
    for (int s = 0; s < config.sessions; ++s) {
      for (int c = 0; c < config.clients_per_session; ++c) {
        const auto slot =
            static_cast<std::size_t>(s * config.clients_per_session + c);
        workers.emplace_back([&, s, c, slot] {
          std::string session = "s";
          session += std::to_string(s);
          run_client(socket_path, session, c,
                     config.clients_per_session, latencies[slot],
                     failures[slot]);
        });
      }
    }
    for (auto& w : workers) w.join();
    result.wall_seconds = wall.seconds();
    for (const auto& per_client : latencies) {
      result.commit_seconds.insert(result.commit_seconds.end(),
                                   per_client.begin(), per_client.end());
    }
    for (const int f : failures) result.failures += f;
  }
  server.request_stop();
  server.wait();
  return result;
}

}  // namespace

int main() {
  ssp::bench::print_banner(
      "bench_serve — multi-tenant serving daemon under concurrent commit "
      "load");
  ssp::bench::Report report("bench_serve");
  report.root()
      .set("grid_side", kGridSide)
      .set("commits_per_client", kCommitsPerClient)
      .set("ops_per_commit", kOpsPerCommit);

  std::printf("%10s %8s %12s %12s %14s %14s %9s\n", "config", "commits",
              "p50 (ms)", "p99 (ms)", "commits/sec", "updates/sec", "wall");
  int failures = 0;
  for (const Config& config : {Config{1, 1}, Config{4, 4}, Config{16, 4}}) {
    const RunResult result = run_config(config);
    failures += result.failures;

    std::vector<double> sorted = result.commit_seconds;
    std::sort(sorted.begin(), sorted.end());
    const auto commits = static_cast<double>(sorted.size());
    const double p50 = ssp::bench::percentile(sorted, 0.50);
    const double p99 = ssp::bench::percentile(sorted, 0.99);
    const double commits_per_sec =
        result.wall_seconds > 0.0 ? commits / result.wall_seconds : 0.0;
    const double updates_per_sec = commits_per_sec * kOpsPerCommit;

    std::ostringstream name;
    name << config.sessions << 'x' << config.clients_per_session;
    std::printf("%10s %8.0f %12.3f %12.3f %14.1f %14.1f %8.2fs\n",
                name.str().c_str(), commits, p50 * 1e3, p99 * 1e3,
                commits_per_sec, updates_per_sec, result.wall_seconds);

    report.section("configs").push(
        Json::object()
            .set("sessions", config.sessions)
            .set("clients_per_session", config.clients_per_session)
            .set("commits", sorted.size())
            .set("failures", result.failures)
            .set("p50_ms", p50 * 1e3)
            .set("p99_ms", p99 * 1e3)
            .set("latency_ms",
                 ssp::bench::latency_summary([&] {
                   std::vector<double> ms;
                   ms.reserve(sorted.size());
                   for (const double s : sorted) ms.push_back(s * 1e3);
                   return ms;
                 }()))
            .set("commits_per_sec", commits_per_sec)
            .set("updates_per_sec", updates_per_sec)
            .set("wall_seconds", result.wall_seconds));
  }
  report.write();
  if (failures != 0) {
    std::fprintf(stderr, "bench_serve: %d request failures\n", failures);
    return 1;
  }
  return 0;
}
