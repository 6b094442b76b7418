#pragma once

/// \file graph_source.hpp
/// Unified graph-source resolution shared by every tool and the serving
/// daemon. A *source string* is one of:
///
///   * `gen:<family>:<params>[:<seed>]` — synthesized on the fly
///     (`gen:grid2d:200x200`, `gen:tri:64x64:7`, `gen:ba:5000:4`,
///     `gen:planted:4096:8:3`);
///   * a path ending in `.sspb` — the binary format written by
///     `ssp_convert` / `storage::write_sspb`, opened via mmap;
///   * any other path — a Matrix Market file for `load_graph_mtx`.
///
/// Before this header, each tool grew its own subset (ssp_serve parsed
/// `gen:` specs, the others only took `.mtx` paths), so the same spec
/// meant different things in different binaries. Now classification and
/// loading live here once, and the tools and the serve layer call
/// `load_graph_source` directly.

#include <string>

#include "graph/graph.hpp"

namespace ssp {

enum class GraphSourceKind {
  kGenerator,  ///< `gen:` spec
  kSspb,       ///< `.sspb` binary file
  kMtx,        ///< Matrix Market file (the default)
};

/// Classifies `source` by shape alone (no filesystem access): a `gen:`
/// prefix wins, then a `.sspb` suffix, else Matrix Market.
[[nodiscard]] GraphSourceKind classify_graph_source(const std::string& source);

/// Synthesizes the graph described by a `gen:` spec. Families and their
/// weight models match the serving daemon's historical behaviour exactly
/// (grid2d → log-uniform [0.1, 10], tri → uniform [0.5, 2], ba →
/// unit-ish preferential attachment, planted → uniform [0.5, 2]); the
/// seed defaults to 1. Throws std::invalid_argument on malformed specs,
/// naming the offending field.
[[nodiscard]] Graph graph_from_spec(const std::string& spec);

/// Resolves any source string to a finalized heap `Graph`: dispatches on
/// `classify_graph_source`. `.sspb` files are mapped, validated, and
/// materialized (bit-identical to the converter's input graph); Matrix
/// Market files go through `load_graph_mtx`. Throws on malformed specs,
/// unreadable files, or corrupt binaries (`storage::SspbError`).
[[nodiscard]] Graph load_graph_source(const std::string& source);

}  // namespace ssp
