#pragma once

/// \file options_io.hpp
/// String round-tripping for the public option enums — the single home for
/// the name tables previously copy-pasted across the ssp_* tools and the
/// ablation benches. `to_string(parse_*(s)) == s` for every accepted name.

#include <string>

#include "core/sparsifier.hpp"

namespace ssp {

enum class StageKind;     // full definition in core/sparsifier_engine.hpp
enum class CutPolicy;     // full definition in scale/hierarchical_sparsifier.hpp
enum class DynamicStage;  // full definition in dynamic/dynamic_sparsifier.hpp

/// "akpw" | "kruskal" | "spt"
[[nodiscard]] const char* to_string(BackboneKind kind);

/// "cholesky" | "amg"
[[nodiscard]] const char* to_string(InnerSolverKind kind);

/// "none" | "node-disjoint" | "bounded"
[[nodiscard]] const char* to_string(SimilarityPolicy policy);

/// "backbone" | "solver-setup" | "spectral-estimate" | "embedding" |
/// "filtering" | "final-estimate"
[[nodiscard]] const char* to_string(StageKind stage);

/// "keep-all" | "filter"
[[nodiscard]] const char* to_string(CutPolicy policy);

/// "validate" | "apply-graph" | "tree-repair" | "rebind" | "sparsify"
[[nodiscard]] const char* to_string(DynamicStage stage);

/// Inverse of to_string(BackboneKind); throws std::invalid_argument naming
/// the accepted spellings.
[[nodiscard]] BackboneKind parse_backbone_kind(const std::string& name);

/// Inverse of to_string(InnerSolverKind).
[[nodiscard]] InnerSolverKind parse_inner_solver_kind(const std::string& name);

/// Inverse of to_string(SimilarityPolicy).
[[nodiscard]] SimilarityPolicy parse_similarity_policy(const std::string& name);

/// Inverse of to_string(CutPolicy).
[[nodiscard]] CutPolicy parse_cut_policy(const std::string& name);

}  // namespace ssp
