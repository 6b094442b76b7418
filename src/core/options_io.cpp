#include "core/options_io.hpp"

#include <stdexcept>

#include "core/sparsifier_engine.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "scale/hierarchical_sparsifier.hpp"

namespace ssp {

const char* to_string(BackboneKind kind) {
  switch (kind) {
    case BackboneKind::kAkpw:
      return "akpw";
    case BackboneKind::kMaxWeight:
      return "kruskal";
    case BackboneKind::kShortestPath:
      return "spt";
  }
  return "?";
}

const char* to_string(InnerSolverKind kind) {
  switch (kind) {
    case InnerSolverKind::kCholesky:
      return "cholesky";
    case InnerSolverKind::kAmg:
      return "amg";
  }
  return "?";
}

const char* to_string(SimilarityPolicy policy) {
  switch (policy) {
    case SimilarityPolicy::kNone:
      return "none";
    case SimilarityPolicy::kNodeDisjoint:
      return "node-disjoint";
    case SimilarityPolicy::kBounded:
      return "bounded";
  }
  return "?";
}

const char* to_string(StageKind stage) {
  switch (stage) {
    case StageKind::kBackbone:
      return "backbone";
    case StageKind::kSolverSetup:
      return "solver-setup";
    case StageKind::kSpectralEstimate:
      return "spectral-estimate";
    case StageKind::kEmbedding:
      return "embedding";
    case StageKind::kFiltering:
      return "filtering";
    case StageKind::kFinalEstimate:
      return "final-estimate";
  }
  return "?";
}

const char* to_string(CutPolicy policy) {
  switch (policy) {
    case CutPolicy::kKeepAll:
      return "keep-all";
    case CutPolicy::kFilter:
      return "filter";
  }
  return "?";
}

const char* to_string(DynamicStage stage) {
  switch (stage) {
    case DynamicStage::kValidate:
      return "validate";
    case DynamicStage::kApplyGraph:
      return "apply-graph";
    case DynamicStage::kBackbone:
      // Pre-rename spelling, kept: it is a wire and metric name.
      return "tree-repair";
    case DynamicStage::kRebind:
      return "rebind";
    case DynamicStage::kSparsify:
      return "sparsify";
  }
  return "?";
}

BackboneKind parse_backbone_kind(const std::string& name) {
  if (name == "akpw") return BackboneKind::kAkpw;
  if (name == "kruskal") return BackboneKind::kMaxWeight;
  if (name == "spt") return BackboneKind::kShortestPath;
  throw std::invalid_argument("unknown backbone '" + name +
                              "' (akpw|kruskal|spt)");
}

InnerSolverKind parse_inner_solver_kind(const std::string& name) {
  if (name == "cholesky") return InnerSolverKind::kCholesky;
  if (name == "amg") return InnerSolverKind::kAmg;
  if (name == "tree-pcg") {
    throw std::invalid_argument(
        "inner solver 'tree-pcg' was replaced by 'cholesky' (an exact "
        "factorization of L_P per round); use cholesky|amg");
  }
  throw std::invalid_argument("unknown inner solver '" + name +
                              "' (cholesky|amg)");
}

SimilarityPolicy parse_similarity_policy(const std::string& name) {
  if (name == "none") return SimilarityPolicy::kNone;
  if (name == "node-disjoint") return SimilarityPolicy::kNodeDisjoint;
  if (name == "bounded") return SimilarityPolicy::kBounded;
  throw std::invalid_argument("unknown similarity policy '" + name +
                              "' (none|node-disjoint|bounded)");
}

CutPolicy parse_cut_policy(const std::string& name) {
  if (name == "keep-all") return CutPolicy::kKeepAll;
  if (name == "filter") return CutPolicy::kFilter;
  throw std::invalid_argument("unknown cut policy '" + name +
                              "' (keep-all|filter)");
}

}  // namespace ssp
