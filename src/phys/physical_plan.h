// Physical plan: the operator-level companion of opt::Plan. The optimizer
// decides the join *order* from shape-statistics cardinalities; the
// physical planner (planner.h) decides, for every step of that order,
// which join *algorithm* executes it — index nested-loop or merge over
// sorted index runs — and records the estimates and rationale behind each
// choice. The physical executor (phys_executor.h) runs the annotated plan
// and is required to produce byte-identical results to the depth-first
// INLJ executor for every operator assignment (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparql/encoded_bgp.h"

namespace shapestats::phys {

/// Physical operator executing one step of a left-deep join order.
enum class OpKind : uint8_t {
  kScan,     // step 0: index scan of the first pattern
  kInlj,     // index nested-loop join: one Graph::Match probe per left row
  kMerge,    // merge join of sorted left rows with a sorted index run
  /// No planner, cache or parser produces this operator, and the executor
  /// runs it as INLJ. It stays only because the frozen benchmark
  /// (shapebench/main.cc:496) counts it for phys.steps.hash; the next
  /// [benchmark] revision removes it.
  kHash,
  kProduct,  // Cartesian step (no shared variable with the prefix)
};

/// Stable lower-case operator name ("scan", "inlj", "merge", "product") —
/// the value StepTrace::join_type carries into the AccuracyLedger and the
/// EXPLAIN output.
const char* OpName(OpKind op);

/// Operator selection policy.
enum class JoinMode : uint8_t {
  kAuto,   // rule-based choice per step (merge where a run exists)
  kInlj,   // force index nested-loop joins everywhere
  kMerge,  // force merge joins wherever a sorted run exists (else INLJ)
};

const char* JoinModeName(JoinMode mode);

/// One step of a physical plan. `pattern` mirrors opt::Plan::order[k]; the
/// remaining fields describe how that step executes.
struct PhysicalStep {
  uint32_t pattern = 0;          // index into EncodedBgp::patterns
  OpKind op = OpKind::kScan;
  /// Component of this pattern holding the join variable (0 = subject,
  /// 1 = predicate, 2 = object); -1 for scan and product steps.
  int join_pos = -1;
  sparql::VarId join_var = 0;    // valid when join_pos >= 0
  /// A sorted contiguous index run on the join component exists (built
  /// from the pattern's constants alone) — the precondition for kMerge.
  bool merge_ok = false;
  /// Left rows arrive already sorted by the join variable (it leads the
  /// canonical row order), so a merge needs no left-side sort.
  bool left_presorted = false;
  double est_left = 0;   // estimated left input rows (step k-1 estimate)
  double est_right = 0;  // estimated right input rows (TP estimate)
  double est_out = 0;    // estimated output rows (step k estimate)
  /// Why the planner picked this operator (rule, forced mode, fallback).
  std::string rationale;
};

/// A physical plan: one step per entry of the join order it annotates.
struct PhysicalPlan {
  std::vector<PhysicalStep> steps;
  /// The mode that produced the plan.
  JoinMode mode = JoinMode::kAuto;

  /// True when any step materializes intermediates (a merge) — the
  /// engine's signal to route execution through the physical executor
  /// instead of the streaming depth-first one.
  bool Materializes() const;

  /// Compact one-line rendering, e.g. "scan, merge(sort-left), inlj".
  std::string Summary() const;
};

/// True when the right side of a merge join on component `join_pos` of
/// `tp` can be produced as a contiguous index run sorted by that
/// component, selected from the pattern's constants alone:
///   subject joins: always (SPO / PSO / OSP / POS cover every case);
///   object joins: unless the subject is constant while the predicate is
///     a variable (no index orders by object within a subject run);
///   predicate joins: never (rare in practice; kept unsupported).
/// Prefix-bound variables in other positions do not participate in run
/// selection — they become per-row checks during the merge.
bool MergeRunAvailable(const sparql::EncodedPattern& tp, int join_pos);

/// Downgrades every merge step to INLJ in place, stamping `why` as
/// the rationale — used when the engine must keep the streaming executor
/// (ASK probes and LIMIT queries profit from early termination).
void ForceInlj(PhysicalPlan* plan, const std::string& why);

}  // namespace shapestats::phys
