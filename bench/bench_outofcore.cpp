// Out-of-core hierarchical sparsification at 10x the in-core bench
// ceiling: generates an 800x800 grid (640k vertices — the largest graph
// any other bench touches is 240x240 = 57,600), serializes it to the
// mmap'd `.sspb` format, and sparsifies it through the hierarchical
// driver under a fixed resident-memory budget, reporting wall time and
// the peak RSS of the out-of-core phase (VmHWM, reset with
// /proc/self/clear_refs so the generation spike does not count).
//
// Two hard checks make this a regression gate, not just a timing table:
//
//   * the out-of-core phase's peak RSS must stay under
//     file_bytes + budget + fixed slack — a regression that materializes
//     the whole graph per leaf (or stops releasing pages between leaves)
//     blows the cap;
//   * a k = 1 run (budget the whole graph fits in) must be bit-identical
//     to the heap whole-graph engine on the same graph.
//
// The process exits non-zero when either check fails. Emits
// BENCH_outofcore.json. SSP_BENCH_LARGE=1 scales the grid to 2000x2000
// (4M vertices).

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "graph/generators/lattice.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/sspb_io.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace ssp;
using bench::dim;
using bench::Json;

constexpr double kSigma2 = 500.0;
constexpr std::uint64_t kBudgetMb = 8;
// Fixed allowance for everything outside the budgeted subgraphs: the
// driver's per-vertex order/assignment arrays, the growing selection,
// and the code + runtime itself.
constexpr std::uint64_t kSlackMb = 128;

/// VmHWM (peak RSS) of this process in bytes, from /proc/self/status.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

/// Resets the kernel's peak-RSS watermark so VmHWM measures only what
/// runs after this call. Returns false where /proc/self/clear_refs is
/// unsupported (the RSS cap check is then skipped, not failed).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.is_open()) return false;
  clear << "5";
  clear.close();
  return clear.good();
}

}  // namespace

int main() {
  bench::Report report("outofcore");
  const Vertex side = dim(800, 2000);
  const std::string path =
      "/tmp/bench_outofcore_" + std::to_string(::getpid()) + ".sspb";

  bench::print_banner("out-of-core hierarchical sparsification");

  // Generate and serialize; the heap graph dies at scope exit so the
  // out-of-core phase starts from the file alone.
  {
    Rng rng(101);
    WallTimer t;
    const Graph g =
        grid_2d(side, side, WeightModel::log_uniform(0.1, 10.0), &rng);
    storage::write_sspb(path, g);
    std::printf("generated %dx%d grid: |V| = %d, |E| = %lld (%.1fs)\n", side,
                side, g.num_vertices(), static_cast<long long>(g.num_edges()),
                t.seconds());
  }
  const storage::MappedGraph mapped(path);
  const double file_mb = static_cast<double>(mapped.file_bytes()) / (1 << 20);
  std::printf("mapped %s: %.1f MB\n\n", path.c_str(), file_mb);

  HierarchicalOptions opts;
  opts.memory_budget_bytes = kBudgetMb << 20;
  opts.block = SparsifyOptions{}.with_sigma2(kSigma2).with_seed(42);

  // ---- Phase 1: the budgeted run, peak RSS measured in isolation ----
  const bool rss_resettable = reset_peak_rss();
  WallTimer oc_timer;
  const HierarchicalResult oc = hierarchical_sparsify(mapped, opts);
  const double oc_seconds = oc_timer.seconds();
  const double peak_mb = static_cast<double>(peak_rss_bytes()) / (1 << 20);
  const double cap_mb =
      file_mb + static_cast<double>(kBudgetMb) + static_cast<double>(kSlackMb);
  const bool within_cap = !rss_resettable || peak_mb <= cap_mb;

  std::printf("out-of-core: budget %llu MB -> %lld leaves (depth %lld), "
              "%lld edges (%lld cut), %.1fs\n",
              static_cast<unsigned long long>(kBudgetMb),
              static_cast<long long>(oc.leaves),
              static_cast<long long>(oc.depth),
              static_cast<long long>(oc.num_edges()),
              static_cast<long long>(oc.cut_edges), oc_seconds);
  if (rss_resettable) {
    std::printf("peak RSS %.1f MB vs cap %.1f MB (file %.1f + budget %llu + "
                "slack %llu) — %s\n",
                peak_mb, cap_mb, file_mb,
                static_cast<unsigned long long>(kBudgetMb),
                static_cast<unsigned long long>(kSlackMb),
                within_cap ? "within cap" : "EXCEEDS CAP");
  } else {
    std::printf("peak RSS %.1f MB (clear_refs unsupported; cap not "
                "enforced)\n", peak_mb);
  }

  // ---- Phase 2: k = 1 bit-parity against the heap whole-graph path ----
  WallTimer heap_timer;
  const Graph heap = mapped.materialize();
  Sparsifier engine(heap, opts.block);
  engine.run();
  const double heap_seconds = heap_timer.seconds();

  HierarchicalOptions whole = opts;
  whole.memory_budget_bytes = 0;  // unbounded: one leaf
  WallTimer k1_timer;
  const HierarchicalResult k1 = hierarchical_sparsify(mapped, whole);
  const double k1_seconds = k1_timer.seconds();
  const bool bitmatch =
      k1.whole_graph && k1.edges == engine.result().edges;

  std::printf("\nheap whole-graph engine: %lld edges, %.1fs\n",
              static_cast<long long>(engine.result().num_edges()),
              heap_seconds);
  std::printf("k=1 out-of-core rerun:   %lld edges, %.1fs — %s\n",
              static_cast<long long>(k1.num_edges()), k1_seconds,
              bitmatch ? "bit-identical" : "MISMATCH");

  report.root().set(
      "graph", Json::object()
                   .set("side", static_cast<long long>(side))
                   .set("vertices", static_cast<long long>(
                                        mapped.num_vertices()))
                   .set("edges", static_cast<long long>(mapped.num_edges()))
                   .set("file_mb", file_mb));
  report.root().set(
      "outofcore",
      Json::object()
          .set("budget_mb", static_cast<long long>(kBudgetMb))
          .set("leaves", static_cast<long long>(oc.leaves))
          .set("depth", static_cast<long long>(oc.depth))
          .set("edges", static_cast<long long>(oc.num_edges()))
          .set("cut_edges", static_cast<long long>(oc.cut_edges))
          .set("seconds", oc_seconds)
          .set("peak_rss_mb", peak_mb)
          .set("rss_cap_mb", cap_mb)
          .set("rss_measured", rss_resettable)
          .set("within_cap", within_cap));
  report.root().set("parity",
                    Json::object()
                        .set("heap_engine_seconds", heap_seconds)
                        .set("k1_outofcore_seconds", k1_seconds)
                        .set("edges", static_cast<long long>(k1.num_edges()))
                        .set("bit_identical", bitmatch));
  report.write();

  ::unlink(path.c_str());
  if (!within_cap || !bitmatch) {
    std::fprintf(stderr, "bench_outofcore: %s\n",
                 !bitmatch ? "k=1 parity violated" : "RSS cap exceeded");
    return 1;
  }
  return 0;
}
