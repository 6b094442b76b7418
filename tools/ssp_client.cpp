// ssp_client — scripted client for the ssp_serve line protocol.
//
//   ssp_client --socket /tmp/ssp.sock <<'EOF'
//   open g1 gen:grid2d:8x8
//   reweight 0 1 2.5
//   commit
//   query stats
//   EOF
//
// Reads request lines from stdin, sends each to the server, and prints
// every status line (and payload) to stdout. With --payload-only, only
// payload lines are printed — `query journal | ssp_client --payload-only`
// extracts a replayable journal directly. Exits non-zero when any request
// failed, so shell scripts can assert whole conversations.
//
// With --metrics, stdin is ignored: the client sends one `metrics`
// request and prints the server's registry snapshot in Prometheus text
// exposition format (name sanitized to [a-zA-Z0-9_], prefixed `ssp_`),
// ready for a textfile collector or `curl`-style scrape wrapper.

#include <cctype>
#include <cstdio>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "serve/client.hpp"

namespace {

// "serve.commit.latency_us.p99" -> "ssp_serve_commit_latency_us_p99".
std::string prometheus_name(const std::string& name) {
  std::string out = "ssp_";
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(uc) != 0 ? c : '_');
  }
  return out;
}

// One `metrics` round trip, reformatted for Prometheus scrapers. The
// server payload is "<name> <value>" lines; everything after the first
// space is the value expression.
int run_metrics_oneshot(ssp::serve::ServeClient& client) {
  const ssp::serve::ClientResponse resp = client.request("metrics");
  if (!resp.ok()) {
    std::fprintf(stderr, "ssp_client: %s\n", resp.status.c_str());
    return 1;
  }
  for (const std::string& line : resp.payload) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;  // malformed line; skip
    std::printf("%s %s\n", prometheus_name(line.substr(0, space)).c_str(),
                line.c_str() + space + 1);
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ssp::cli::ArgParser args(
      "ssp_client", "scripted stdin client for the ssp_serve protocol");
  args.option("socket", "unix-domain socket path", "ssp_serve.sock")
      .option("tcp", "connect to 127.0.0.1:<port> instead of the unix socket")
      .flag("payload-only",
            "print only payload lines (journal/edge extraction)")
      .flag("metrics",
            "one-shot: fetch the server metrics registry and print it in "
            "Prometheus text format (stdin is not read)");
  return ssp::cli::run_tool(args, argc, argv, [&args] {
    ssp::serve::ServeClient client =
        args.has("tcp")
            ? ssp::serve::ServeClient::connect_tcp(
                  static_cast<int>(args.get_int("tcp", 0)))
            : ssp::serve::ServeClient::connect_unix(
                  args.get("socket", "ssp_serve.sock"));
    if (args.get_bool("metrics", false)) return run_metrics_oneshot(client);
    const bool payload_only = args.get_bool("payload-only", false);

    int failures = 0;
    std::string line;
    while (std::getline(std::cin, line)) {
      const ssp::serve::ClientResponse resp = client.request(line);
      if (!resp.ok()) ++failures;
      if (payload_only) {
        for (const std::string& p : resp.payload) std::printf("%s\n", p.c_str());
      } else {
        std::printf("%s\n", resp.status.c_str());
        for (const std::string& p : resp.payload) std::printf("%s\n", p.c_str());
      }
      if (resp.status == "ok bye") break;
    }
    std::fflush(stdout);
    return failures == 0 ? 0 : 1;
  });
}
