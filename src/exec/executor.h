// Depth-first BGP execution. One evaluator (exec/executor.cc) joins the
// patterns in a given order with index nested loops over the store:
// streaming, no materialization. It runs in count mode for ExecuteBgp,
// recording the true cardinality of every intermediate result (the TZ
// Card column of Table 2, the paper's true plan cost and the ground truth
// for the q-error analysis), and in row mode for ExecuteSelect
// (exec/select_executor.h). Probe, scan and row accounting, the timeout,
// row budget and cancellation checks are the shared WorkMeter
// (exec/work_meter.h) that the physical executor uses too.
// This is the stand-in for executing plans in Jena TDB in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "rdf/graph.h"
#include "sparql/encoded_bgp.h"
#include "util/status.h"

namespace shapestats::exec {

struct ExecOptions {
  /// Abort when the number of produced intermediate rows exceeds this
  /// (0 = unlimited). Mirrors the paper's 10-minute query timeout.
  uint64_t max_intermediate_rows = 0;
  /// Wall-clock timeout in milliseconds (0 = none). Checked on a work
  /// counter that advances per index probe and per scanned triple, so
  /// queries stuck producing zero rows still time out.
  double timeout_ms = 0;
  /// If > 0, exec::ExecuteBgp stops once this many results are counted.
  /// Only ExecuteBgp reads it: ExecuteSelect applies the query's own LIMIT,
  /// the physical executor rejects it, and QueryEngine::Open rejects a
  /// non-zero value.
  uint64_t limit = 0;
  /// Optional per-step probe/scan counters. When null (the default) the
  /// executor only maintains scalar totals for the global metrics registry.
  obs::ExecTrace* trace = nullptr;
  /// Optional per-query resource accounting + cooperative cancellation.
  /// The executor publishes its running totals here on the amortized work
  /// tick (every kTimeoutCheckInterval probes/scans) and aborts — with
  /// `cancelled` set — when the tracker's cancel flag is raised, so a
  /// cancellation is served within one work tick.
  obs::ResourceTracker* resources = nullptr;
};

struct ExecResult {
  /// Number of result rows (BGP solution mappings, bag semantics).
  uint64_t num_results = 0;
  /// True cardinality after joining patterns order[0..k].
  std::vector<uint64_t> step_cards;
  /// Sum of intermediate cardinalities — the paper's true plan cost.
  uint64_t TrueCost() const;
  double elapsed_ms = 0;
  bool timed_out = false;
  /// True when the abort was a served ResourceTracker cancellation (a
  /// cancelled run also sets timed_out: both truncate execution).
  bool cancelled = false;
  /// True when max_intermediate_rows stopped the run (it also sets
  /// timed_out).
  bool row_capped = false;
};

/// Executes `bgp` joining patterns in the given `order` (indices into
/// bgp.patterns; must be a permutation).
Result<ExecResult> ExecuteBgp(const rdf::Graph& graph,
                              const sparql::EncodedBgp& bgp,
                              const std::vector<uint32_t>& order,
                              const ExecOptions& options = {});

/// Convenience: executes in textual pattern order.
Result<ExecResult> ExecuteBgp(const rdf::Graph& graph,
                              const sparql::EncodedBgp& bgp,
                              const ExecOptions& options = {});

}  // namespace shapestats::exec
