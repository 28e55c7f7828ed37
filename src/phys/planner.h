// PhysicalPlanner: annotates an opt::Plan join order with a physical
// operator per step. In auto mode the choice is a rule over the
// shape-statistics estimate of the left input and the sorted index runs
// the store holds (DESIGN.md §9 documents the rule).
#pragma once

#include "opt/plan.h"
#include "phys/physical_plan.h"
#include "rdf/graph.h"
#include "sparql/encoded_bgp.h"

namespace shapestats::phys {

/// In auto mode, left inputs at or below this many estimated rows use
/// INLJ — a handful of index probes beats materializing anything.
inline constexpr double kTinyLeftRows = 64;

struct PlannerOptions {
  /// Operator policy.
  JoinMode mode = JoinMode::kAuto;
};

/// Chooses a physical operator for every step of `plan.order` against
/// `bgp`. Plans without estimates (textual optimizer) always get INLJ.
/// The result always has exactly plan.order.size() steps, step k
/// annotating pattern plan.order[k].
PhysicalPlan PlanPhysical(const sparql::EncodedBgp& bgp, const opt::Plan& plan,
                          const rdf::Graph& graph,
                          const PlannerOptions& options = {});

}  // namespace shapestats::phys
