// PlanVerifier: structural validation of opt::Plan against the BGP it was
// built for. The greedy planner (Algorithm 1) must emit a permutation of
// the patterns in which every non-first step joins with the prefix (unless
// the plan is flagged Cartesian), with finite non-negative estimates whose
// sum is the reported total cost (Problem 2). Violations mean a planner or
// estimator bug, so the verifier runs on every plan in the engine (see
// EngineOptions::verify_plans), in EXPLAIN / EXPLAIN ANALYZE, and across
// the randomized property tests.
//
// Rule catalog (all severity error):
//   plan.order-size            order length != number of BGP patterns
//   plan.order-not-permutation duplicate or out-of-range pattern index
//   plan.sizes-mismatch        step/tp estimate vectors inconsistent with order
//   plan.disconnected-step     step shares no variable with the prefix while
//                              the plan is not flagged has_cartesian
//   plan.nonfinite-estimate    negative, NaN or infinite estimate
//   plan.cost-mismatch         total_cost != sum of step estimates
//
// Physical-plan rules (all severity error), applied to the operator
// annotations a phys::PhysicalPlanner adds on top of the join order:
//   phys.steps-size            physical step count != logical order length
//   phys.pattern-mismatch      steps[k].pattern != order[k]
//   phys.first-step            step 0 is not an index scan
//   phys.join-var-unbound      join step whose join component is not a
//                              variable bound by the join prefix
//   phys.merge-order-unavailable  merge step without a sorted index run on
//                              the join component (MergeRunAvailable)
//   phys.product-mislabel      product step that shares a variable with the
//                              prefix, or a join step that shares none
//   phys.nonfinite-estimate    negative, NaN or infinite operator estimate
#pragma once

#include "analysis/diagnostics.h"
#include "opt/plan.h"
#include "phys/physical_plan.h"
#include "sparql/encoded_bgp.h"

namespace shapestats::analysis {

class PlanVerifier {
 public:
  /// Verifies `plan` against `bgp`; returns one diagnostic per violation
  /// (empty when the plan is well-formed). Publishes
  /// analysis.plan_verifications / analysis.plan_violations counters.
  Diagnostics Verify(const opt::Plan& plan, const sparql::EncodedBgp& bgp) const;

  /// Verifies the physical plan `pplan` against the logical `plan` it
  /// annotates: operator/sort-order prerequisites and estimate sanity (the
  /// phys.* rule catalog above). Structural problems of the logical plan
  /// itself are the other overload's job.
  /// Publishes analysis.phys_verifications / analysis.phys_violations.
  Diagnostics Verify(const phys::PhysicalPlan& pplan, const opt::Plan& plan,
                     const sparql::EncodedBgp& bgp) const;
};

}  // namespace shapestats::analysis
