#pragma once

/// \file cli.hpp
/// Command-line parsing for the ssp tools. `ArgParser` accepts registered
/// options only (anything else is an error naming the option); each one
/// declares whether it takes a value (`--key value` / `--key=value`, a
/// missing value is an error), is a boolean flag (`--flag`), or takes an
/// optional value. It also does typed lookup with defaults,
/// required-argument checks, and usage text generation; the
/// helpers below it declare each shared flag set exactly once
/// (--threads/--seed, the SparsifyOptions surface, and the scale group
/// --partitions/--cut-policy/--memory-budget-mb) so the four tools stay in
/// sync.

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/options_io.hpp"
#include "core/sparsifier.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "graph/graph_source.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"

namespace ssp::cli {

/// What an option accepts after its name.
enum class Arity {
  kValue,     ///< `--key value` or `--key=value`; a missing value is an error
  kFlag,      ///< bare `--key` (reads as "true"); never takes the next token
  kOptional,  ///< `--key [value]`: takes the next token unless it is an option
};

class ArgParser {
 public:
  ArgParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Registers an option: parse() accepts only registered options, and
  /// usage() lists them.
  ArgParser& option(const std::string& name, const std::string& help,
                    const std::string& default_value = "",
                    Arity arity = Arity::kValue) {
    help_.push_back({name, help, default_value, arity});
    return *this;
  }

  /// Registers a boolean flag (Arity::kFlag).
  ArgParser& flag(const std::string& name, const std::string& help) {
    return option(name, help, "", Arity::kFlag);
  }

  /// Parses argv. Throws std::invalid_argument on malformed input, on
  /// options that were never registered and on a value option without its
  /// value (naming the option). Returns false when --help was requested
  /// (usage printed by caller).
  bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") return false;
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      const Arity arity = registered_arity(arg.substr(0, eq));
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        continue;
      }
      const bool value_follows =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      if (arity != Arity::kFlag && value_follows) {
        values_[arg] = argv[++i];
      } else if (arity == Arity::kValue) {
        throw std::invalid_argument("option --" + arg + " expects a value");
      } else {
        values_[arg] = "true";
      }
    }
    return true;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing required option --" + key);
    }
    return it->second;
  }

  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return std::stod(it->second);
    } catch (const std::exception&) {
      throw std::invalid_argument("option --" + key +
                                  " expects a number, got '" + it->second +
                                  "'");
    }
  }

  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return std::stoll(it->second);
    } catch (const std::exception&) {
      throw std::invalid_argument("option --" + key +
                                  " expects an integer, got '" + it->second +
                                  "'");
    }
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    if (v == "true" || v == "1" || v == "yes") return true;
    if (v == "false" || v == "0" || v == "no") return false;
    throw std::invalid_argument("option --" + key +
                                " expects true|false, got '" + v + "'");
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] std::string usage() const {
    std::ostringstream os;
    os << program_ << " — " << description_ << "\n\noptions:\n";
    for (const auto& h : help_) {
      os << "  --" << h.name;
      if (!h.default_value.empty()) os << " (default: " << h.default_value << ")";
      os << "\n      " << h.help << "\n";
    }
    return os.str();
  }

 private:
  [[nodiscard]] Arity registered_arity(const std::string& name) const {
    for (const auto& h : help_) {
      if (h.name == name) return h.arity;
    }
    throw std::invalid_argument("unknown option --" + name);
  }

  struct HelpEntry {
    std::string name;
    std::string help;
    std::string default_value;
    Arity arity;
  };
  std::string program_;
  std::string description_;
  std::vector<HelpEntry> help_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// ---- Shared flag sets ------------------------------------------------------

/// Registers the execution flags every ssp tool carries: --threads and
/// --seed (with a tool-specific seed description).
inline ArgParser& add_execution_options(ArgParser& args,
                                        const char* seed_help =
                                            "random seed") {
  return args
      .option("threads",
              "worker threads; results are bit-identical for every value "
              "(0 = SSP_THREADS env or hardware concurrency)",
              "0")
      .option("seed", seed_help, "42");
}

/// Applies --threads to the process-wide default (before any parallel
/// path runs) and returns the parsed value.
inline int apply_threads(const ArgParser& args) {
  const int threads = static_cast<int>(args.get_int("threads", 0));
  set_default_threads(threads);
  return threads;
}

/// The parsed --seed value.
[[nodiscard]] inline std::uint64_t seed_from(const ArgParser& args) {
  return static_cast<std::uint64_t>(args.get_int("seed", 42));
}

/// Registers the shared observability flag: `--trace <out.json>` records
/// spans + metrics and writes a Chrome trace_event file on exit.
inline ArgParser& add_trace_option(ArgParser& args) {
  return args.option(
      "trace",
      "record spans and metrics, writing a chrome://tracing / Perfetto "
      "JSON trace here on exit (observability never changes output bytes)");
}

/// Applies --trace: enables the metrics registry and span recording,
/// returning the output path ("" = tracing off). Call before the
/// workload; pass the returned path to finish_trace() at tool exit.
[[nodiscard]] inline std::string apply_trace(const ArgParser& args) {
  const std::string path = args.get("trace", "");
  if (!path.empty()) {
    obs::set_metrics_enabled(true);
    obs::start_trace();
  }
  return path;
}

/// Flushes the trace recorded since apply_trace() to `path` (no-op when
/// empty). Returns false when the file could not be written.
inline bool finish_trace(const std::string& path) {
  if (path.empty()) return true;
  const bool ok = obs::write_trace_file(path);
  if (ok) std::fprintf(stderr, "trace: wrote %s\n", path.c_str());
  return ok;
}

/// Registers the full SparsifyOptions flag surface (plus --threads/--seed
/// via add_execution_options).
inline ArgParser& add_sparsify_options(ArgParser& args) {
  args.option("sigma2", "target relative condition number", "100")
      .option("backbone", "spanning tree: akpw|kruskal|spt", "akpw")
      .option("power-steps", "embedding power iterations t", "2")
      .option("num-vectors", "embedding vectors r (0 = auto)", "0")
      .option("max-rounds", "densification round limit", "24")
      .option("max-edges-per-round", "per-round edge cap (0 = adaptive)", "0")
      .option("similarity", "batch policy: none|node-disjoint|bounded",
              "node-disjoint")
      .option("node-cap", "per-endpoint budget (similarity=bounded)", "2")
      .option("inner-solver", "L_P solver: cholesky|amg", "cholesky")
      .option("solver-tolerance", "relative tolerance of AMG inner solves",
              "1e-4");
  return add_execution_options(args);
}

/// Builds SparsifyOptions from the flags registered by
/// add_sparsify_options (validating eagerly via the with_* setters).
[[nodiscard]] inline SparsifyOptions sparsify_options_from(
    const ArgParser& args) {
  return SparsifyOptions{}
      .with_sigma2(args.get_double("sigma2", 100.0))
      .with_backbone(parse_backbone_kind(args.get("backbone", "akpw")))
      .with_power_steps(static_cast<int>(args.get_int("power-steps", 2)))
      .with_num_vectors(args.get_int("num-vectors", 0))
      .with_max_rounds(args.get_int("max-rounds", 24))
      .with_max_edges_per_round(args.get_int("max-edges-per-round", 0))
      .with_similarity(
          parse_similarity_policy(args.get("similarity", "node-disjoint")))
      .with_node_cap(args.get_int("node-cap", 2))
      .with_inner_solver(
          parse_inner_solver_kind(args.get("inner-solver", "cholesky")))
      .with_solver_tolerance(args.get_double("solver-tolerance", 1e-4))
      .with_threads(static_cast<int>(args.get_int("threads", 0)))
      .with_seed(seed_from(args));
}

/// Registers the scale-layer flag group (scale/hierarchical_sparsifier.hpp)
/// — declared once here for every tool that sparsifies.
inline ArgParser& add_scale_options(ArgParser& args) {
  return args
      .option("partitions",
              "partition-parallel blocks k (1 = whole-graph engine)", "1")
      .option("cut-policy", "inter-block edges: keep-all|filter", "filter")
      .option("cut-sigma2", "σ² target for the cut pass (0 = --sigma2)", "0")
      .flag("estimate-quality",
            "estimate global (λ_min, λ_max, σ²) of the stitched sparsifier")
      .flag("rescale",
            "apply the scalar rescale stage to the stitched sparsifier")
      .option("memory-budget-mb",
              "out-of-core mode: sparsify leaf by leaf, holding leaf "
              "subgraphs of at most this many MiB at a time (0 = in-core)",
              "0");
}

/// Builds HierarchicalOptions from the flags registered by
/// add_scale_options, with `block` as the per-unit engine options. A
/// memory budget keeps every cut edge (the out-of-core route, which takes
/// no partition flags); otherwise --cut-policy applies.
[[nodiscard]] inline HierarchicalOptions scale_options_from(
    const ArgParser& args, const SparsifyOptions& block) {
  const long long budget_mb = args.get_int("memory-budget-mb", 0);
  const std::uint64_t budget =
      budget_mb > 0 ? static_cast<std::uint64_t>(budget_mb) << 20 : 0;
  HierarchicalOptions opts;
  opts.with_partitions(args.get_int("partitions", 1))
      .with_memory_budget_bytes(budget)
      .with_block_options(block)
      .with_threads(block.threads);
  if (budget == 0) {
    opts.with_cut_policy(parse_cut_policy(args.get("cut-policy", "filter")));
  }
  const double cut_sigma2 = args.get_double("cut-sigma2", 0.0);
  if (cut_sigma2 > 0.0) {
    opts.with_cut_options(SparsifyOptions(block).with_sigma2(cut_sigma2));
  }
  return opts;
}

/// Help text for the shared --in graph-source surface: a Matrix Market
/// path, a converted `.sspb` binary (mmap-backed), or a `gen:` spec
/// (graph/graph_source.hpp).
inline constexpr const char* kGraphSourceHelp =
    "input graph: .mtx file, .sspb binary (ssp_convert), or generator "
    "spec gen:<family>:... (required)";

/// Loads the tool's `--in` graph through the unified source resolver
/// (.mtx / .sspb / gen: spec) as a heap graph.
[[nodiscard]] inline Graph load_graph_arg(const ArgParser& args) {
  return load_graph_source(args.require("in"));
}

/// Registers the dynamic-update flag group (src/dynamic/) — the
/// update-journal replay surface of ssp_sparsify.
inline ArgParser& add_dynamic_options(ArgParser& args) {
  return args
      .option("update-file",
              "replay an update journal (insert/delete/reweight/commit "
              "lines) through the dynamic layer")
      .flag("warm-refine",
            "keep the previous selection across updates (faster, "
            "spectrally equivalent, not bit-equal to a cold rebuild)");
}

/// Builds DynamicOptions from the flags registered by
/// add_dynamic_options, with `base` as the per-batch engine options.
[[nodiscard]] inline DynamicOptions dynamic_options_from(
    const ArgParser& args, const SparsifyOptions& base) {
  return DynamicOptions{}
      .with_base(base)
      .with_warm_refine(args.get_bool("warm-refine", false));
}

/// Registers the serving flag group (src/serve/) — the transport and
/// admission-control surface shared by ssp_serve and bench_serve.
inline ArgParser& add_serve_options(ArgParser& args) {
  return args
      .option("socket", "unix-domain socket path", "ssp_serve.sock")
      .option("tcp",
              "bind 127.0.0.1:<port> instead of the unix socket "
              "(bare or 0 = ephemeral port)",
              "", Arity::kOptional)
      .option("max-sessions", "admission cap on open sessions", "64")
      .option("max-queue",
              "per-session queued-batch cap before commits get a "
              "backpressure response", "8")
      .option("max-clients", "admission cap on concurrent connections", "64")
      .option("max-line-bytes", "framing limit on one request line", "65536")
      .option("drain-timeout",
              "seconds wait() gives idle connections before force-closing "
              "them", "5")
      .option("state-dir",
              "persist sessions here (journal + checkpoint per session) "
              "and restore them warm on the next start; empty = off")
      .option("checkpoint-every",
              "with --state-dir: write a sparsifier checkpoint every N "
              "commits (a final one is written on graceful close)", "16");
}

/// Builds a validated serve::ServerConfig from the flags registered by
/// add_serve_options, with `dynamic` as the per-session engine options.
/// Throws std::invalid_argument on out-of-range values.
[[nodiscard]] inline serve::ServerConfig serve_config_from(
    const ArgParser& args, const DynamicOptions& dynamic) {
  serve::ServerConfig config;
  config.socket_path = args.get("socket", "ssp_serve.sock");
  if (args.has("tcp")) {
    // Bare `--tcp` parses as the boolean "true"; treat it as port 0.
    const std::string raw = args.get("tcp", "0");
    config.tcp_port =
        raw == "true" ? 0 : static_cast<int>(args.get_int("tcp", 0));
  }
  config.max_clients = static_cast<int>(args.get_int("max-clients", 64));
  const long long line_bytes = args.get_int("max-line-bytes", 65536);
  if (line_bytes < 16) {
    throw std::invalid_argument(
        "option --max-line-bytes expects a value >= 16, got '" +
        std::to_string(line_bytes) + "'");
  }
  config.max_line_bytes = static_cast<std::size_t>(line_bytes);
  config.serve = serve::ServeOptions{}
                     .with_dynamic(dynamic)
                     .with_max_sessions(args.get_int("max-sessions", 64))
                     .with_max_queued_batches(args.get_int("max-queue", 8))
                     .with_drain_seconds(args.get_double("drain-timeout", 5.0))
                     .with_state_dir(args.get("state-dir", ""))
                     .with_checkpoint_every(args.get_int("checkpoint-every", 16));
  config.validate();
  return config;
}

/// Shared main() scaffold: parses argv, prints usage on --help, runs
/// `body` and reports std::exception failures with the usage text.
template <typename Body>
int run_tool(ArgParser& args, int argc, char** argv, Body&& body) {
  try {
    if (!args.parse(argc, argv)) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    // No tool takes positional arguments; a stray token is most likely a
    // value given to a flag (`--warm-refine false`).
    if (!args.positional().empty()) {
      throw std::invalid_argument("unexpected argument '" +
                                  args.positional().front() + "'");
    }
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), args.usage().c_str());
    return 1;
  }
}

}  // namespace ssp::cli
