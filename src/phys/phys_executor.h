// Physical-plan executor: runs a join order step by step with the
// operators a PhysicalPlan prescribes (index nested-loop or merge over
// sorted index runs), materializing the intermediate binding table between
// steps.
//
// Result contract: for every well-formed physical plan over the same join
// order, the output is byte-for-byte identical to the depth-first INLJ
// executor (exec::ExecuteSelect) — same rows in the same order. A merge
// step emits its left rows in order, each with its group of the sorted
// index run in run order, which is already the order the INLJ probe would
// have produced (see DESIGN.md §9 for the argument).
//
// Probe, scan and row accounting, the timeout, row budget and
// cancellation checks, the ExecTrace and the exec.* counters go through
// the same exec::WorkMeter as the depth-first evaluator, so the counters
// of both executors mean the same thing.
//
// Early termination (SPARQL LIMIT pushdown, ASK probes) is deliberately
// unsupported: those queries profit from the streaming executor and the
// engine routes them there. ExecOptions::limit > 0 is an error here.
#pragma once

#include "exec/executor.h"
#include "exec/select_executor.h"
#include "phys/physical_plan.h"
#include "rdf/graph.h"
#include "sparql/encoded_bgp.h"
#include "sparql/query.h"
#include "util/status.h"

namespace shapestats::phys {

/// Executes a full SELECT query (filters + DISTINCT / ORDER BY / OFFSET /
/// LIMIT as post-modifiers) with the physical plan's operators.
/// `pplan.steps[k].pattern` defines the join order, and `bgp` must be the
/// encoding of `query` against `graph.dict()`. With `options.trace` set,
/// ExecTrace::step_rows_produced counts each step's bindings (post-bind,
/// pre-filter), as the depth-first executor does.
Result<exec::ResultTable> ExecuteSelectPhysical(
    const rdf::Graph& graph, const sparql::ParsedQuery& query,
    const sparql::EncodedBgp& bgp, const PhysicalPlan& pplan,
    const exec::ExecOptions& options = {});

}  // namespace shapestats::phys
