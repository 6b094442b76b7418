// perfbench_runner: runs one benchmark workload in this process and prints
// its raw samples, gates and host facts as one JSON line (the last line of
// standard output). `perfbench/run.py` turns that into the metrics.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir> [--prep]
//   perfbench_runner --self-test --workdir <dir>
//
// --prep writes the workload's seeded input files into --workdir and exits;
// run it as its own process so input generation stays out of the measured
// process's timings and peak RSS.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/sparsifier.hpp"
#include "gates.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/laplacian.hpp"
#include "la/kernels/kernels.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Report;
using perfbench::RunConfig;

struct Workload {
  void (*prep)(const RunConfig&);
  void (*run)(const RunConfig&, Report&);
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"mesh-precond",
       {perfbench::prep_mesh_precond, perfbench::run_mesh_precond}},
      {"dense-network",
       {perfbench::prep_dense_network, perfbench::run_dense_network}},
      {"serve-churn",
       {perfbench::prep_serve_churn, perfbench::run_serve_churn}},
      {"outofcore-mesh",
       {perfbench::prep_outofcore_mesh, perfbench::run_outofcore_mesh}},
  };
  return table;
}

void record_host(Report& rep) {
  using ssp::kernels::Backend;
  std::string compiled;
  for (const Backend b : {Backend::kGeneric, Backend::kAvx2, Backend::kNeon}) {
    if (ssp::kernels::backend_compiled(b)) {
      compiled += std::string(compiled.empty() ? "" : ",") +
                  ssp::kernels::backend_name(b);
    }
  }
  rep.value("host.nproc", ssp::hardware_threads());
  rep.value("host.threads", ssp::default_threads());
  rep.text("host.kernels_compiled", compiled);
  rep.text("host.kernel_active",
           ssp::kernels::backend_name(ssp::kernels::active_backend()));
  rep.text("host.build_type", PERFBENCH_BUILD_TYPE);
}

/// The gates must pass on correct output and trip on broken output, and
/// failed serve replies must count as failed operations. Runs in the
/// working directory (the serve check writes its inputs and socket there).
int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  ssp::Rng rng(7);
  const ssp::Graph g = ssp::grid_2d(
      12, 12, ssp::WeightModel::log_uniform(0.1, 10.0), &rng);
  const ssp::SparsifyResult r =
      ssp::sparsify(g, perfbench::engine_options(7));
  expect(perfbench::check_spanning_subgraph(g, r.edges).empty(),
         "a real sparsifier passes the spanning gate");
  for (const ssp::EdgeId dropped : {r.tree_edges.front(), r.tree_edges.back()}) {
    std::vector<ssp::EdgeId> broken;
    for (const ssp::EdgeId e : r.edges) {
      if (e != dropped) broken.push_back(e);
    }
    expect(!perfbench::check_spanning_subgraph(g, broken).empty(),
           "dropping one tree edge trips the spanning gate");
    expect(!perfbench::check_spanning_rows(g, perfbench::edge_rows(g, broken))
                .empty(),
           "dropping one tree edge trips the row-form spanning gate");
  }
  std::vector<ssp::EdgeId> doubled = r.edges;
  doubled.push_back(r.edges.back());
  expect(!perfbench::check_spanning_subgraph(g, doubled).empty(),
         "a repeated edge trips the spanning gate");

  const std::vector<ssp::Edge> rows = perfbench::edge_rows(g, r.edges);
  expect(perfbench::compare_rows(rows, rows).empty(),
         "identical rows compare equal");
  std::vector<ssp::Edge> nudged = rows;
  nudged[3].weight = std::nextafter(nudged[3].weight, 1e300);
  expect(!perfbench::compare_rows(nudged, rows).empty(),
         "a one-ulp weight change trips the replay comparison");

  const ssp::CsrMatrix l = ssp::laplacian(g);
  std::vector<double> x = rng.normal_vector(g.num_vertices());
  const std::vector<double> b = l.multiply(x);
  expect(perfbench::relative_residual(l, b, x) < 1e-12,
         "an exact solution has a zero recomputed residual");
  x[0] += 1.0;
  expect(perfbench::relative_residual(l, b, x) > 1e-6,
         "a perturbed solution has a large recomputed residual");
  perfbench::serve_self_test(expect);
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench_runner: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workdir;
  bool prep = false;
  bool self_test_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--self-test") {
        self_test_mode = true;
      } else if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        cfg.trace = value() == "1";
      } else if (arg == "--workdir") {
        workdir = value();
      } else if (arg == "--prep") {
        prep = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (workdir.empty() || chdir(workdir.c_str()) != 0) {
    return usage("--workdir must name an existing directory");
  }
  // Pin the process-wide worker count before anything touches the pool.
  ssp::set_default_threads(perfbench::kThreads);
  if (self_test_mode) {
    try {
      return self_test();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_runner: self-test failed: %s\n",
                   e.what());
      return 1;
    }
  }
  const auto it = workloads().find(cfg.workload);
  if (it == workloads().end()) return usage("unknown --workload");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  try {
    if (prep) {
      it->second.prep(cfg);
      return 0;
    }
    Report rep;
    record_host(rep);
    it->second.run(cfg, rep);
    if (cfg.trace) {
      if (!perfbench::tracer().write_chrome_trace("trace.json")) {
        rep.gate("trace_written", false, "cannot write trace.json");
      }
      for (const auto& [name, s] : perfbench::tracer().self_seconds()) {
        rep.value("self_s." + name, s);
      }
    }
    std::cout << rep.json() << std::endl;
    return rep.gates_ok() && rep.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s failed: %s\n",
                 cfg.workload.c_str(), e.what());
    return 1;
  }
}
