#include "phys/physical_plan.h"

#include <cstdlib>
#include <cstring>

namespace shapestats::phys {

const char* OpName(OpKind op) {
  switch (op) {
    case OpKind::kScan: return "scan";
    case OpKind::kInlj: return "inlj";
    case OpKind::kMerge: return "merge";
    case OpKind::kHash: return "hash";
    case OpKind::kProduct: return "product";
  }
  return "?";
}

const char* JoinModeName(JoinMode mode) {
  switch (mode) {
    case JoinMode::kEnv: return "env";
    case JoinMode::kAuto: return "auto";
    case JoinMode::kInlj: return "inlj";
    case JoinMode::kMerge: return "merge";
  }
  return "?";
}

JoinMode JoinModeFromEnv() {
  const char* v = std::getenv("SHAPESTATS_JOIN");
  if (v == nullptr) return JoinMode::kAuto;
  if (std::strcmp(v, "inlj") == 0) return JoinMode::kInlj;
  if (std::strcmp(v, "merge") == 0) return JoinMode::kMerge;
  return JoinMode::kAuto;
}

JoinMode ResolveJoinMode(JoinMode mode) {
  return mode == JoinMode::kEnv ? JoinModeFromEnv() : mode;
}

bool PhysicalPlan::Materializes() const {
  for (const PhysicalStep& s : steps) {
    if (s.op == OpKind::kMerge) return true;
  }
  return false;
}

std::string PhysicalPlan::Summary() const {
  std::string out;
  for (const PhysicalStep& s : steps) {
    if (!out.empty()) out += ", ";
    out += OpName(s.op);
    if (s.op == OpKind::kMerge && !s.left_presorted) {
      out += "(sort-left)";
    }
  }
  return out;
}

bool MergeRunAvailable(const sparql::EncodedPattern& tp, int join_pos) {
  // A pattern with a constant absent from the data matches nothing; the
  // executor short-circuits it, so no run (and no merge) is needed.
  if (tp.HasMissingConstant()) return false;
  switch (join_pos) {
    case 0:
      // Runs sorted by subject exist for every constant combination:
      // (p,o) -> POS prefix, (p) -> PSO run, (o) -> OSP prefix, () -> SPO.
      return true;
    case 2:
      // Runs sorted by object: (s,p) -> SPO prefix, (p) -> POS prefix,
      // () -> full OSP. A constant subject with a variable predicate has
      // no object-sorted index run.
      return !(tp.s.is_bound() && !tp.p.is_bound());
    default:
      return false;
  }
}

void ForceInlj(PhysicalPlan* plan, const std::string& why) {
  for (PhysicalStep& s : plan->steps) {
    if (s.op == OpKind::kMerge) {
      s.op = OpKind::kInlj;
      s.rationale = why;
    }
  }
}

}  // namespace shapestats::phys
