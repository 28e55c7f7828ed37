// Per-query tracing: phase spans (obs::Phase: parse -> encode -> analyze
// -> static-check -> plan -> estimate -> execute), planner decision
// counters, executor probe/scan counters, and per-join-step records
// comparing estimated against true cardinalities —
// the q-error evidence of the paper's evaluation (Fig. 4c/4d, Table 2),
// collected for a single query instead of a whole benchmark. Depends only
// on util so every layer (card, opt, exec, engine) can emit into it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/query_phase.h"
#include "obs/resource_tracker.h"

namespace shapestats::obs {

/// One timed phase of the query lifecycle.
struct PhaseSpan {
  std::string name;
  double ms = 0;
};

/// Planner decision counters (Algorithm 1 instrumentation).
struct PlannerTrace {
  /// Candidate patterns examined across all greedy iterations.
  uint64_t candidates_considered = 0;
  /// Pairwise join estimates evaluated (provider EstimateJoin calls).
  uint64_t join_estimates = 0;
  /// Steps where no candidate joined and a Cartesian product was emitted.
  uint64_t cartesian_steps = 0;
};

/// Executor work counters, attached via exec::ExecOptions::trace. Per-step
/// vectors are indexed by plan step (position in the join order).
struct ExecTrace {
  std::vector<uint64_t> step_probes;        // index lookups per step
  std::vector<uint64_t> step_rows_scanned;  // triples iterated per step
  /// Bindings produced per step — the true intermediate-result cardinality
  /// the q-error compares against. Filled by both the ASK/COUNT executor
  /// and the SELECT executor, so any traced execution can feed the
  /// AccuracyLedger without a separate counting run.
  std::vector<uint64_t> step_rows_produced;
  uint64_t total_probes = 0;
  uint64_t total_rows_scanned = 0;
};

/// One join step of an analyzed plan: the estimate that ordered it, the
/// ground truth the executor measured, and the work it cost.
struct StepTrace {
  uint32_t step = 0;         // 1-based position in the join order
  uint32_t pattern = 0;      // index into the BGP's patterns
  std::string pattern_text;  // pretty-printed triple pattern
  std::string source;        // statistics source: "shape" | "global" | "textual"
  std::string formula;       // Table-1 case that produced the TP estimate
  /// Physical operator: "scan" (first step) | "inlj" | "merge" | "product"
  /// (see phys::OpName).
  std::string join_type;
  double tp_est = 0;         // per-pattern estimated cardinality
  double est_card = 0;       // estimated cardinality after this join step
  double est_build = 0;      // estimated left input rows (est_left)
  double est_probe = 0;      // estimated right pattern rows (est_right)
  uint64_t true_card = 0;    // executor-measured cardinality (step_cards)
  double q_error = 0;        // QError(est_card, true_card)
  uint64_t rows_scanned = 0;
  uint64_t index_probes = 0;
};

/// Full trace of one query through the engine.
struct QueryTrace {
  std::string query;        // original SPARQL text
  std::string optimizer;    // provider label ("SS", "GS", "textual", ...)
  std::string query_shape;  // star / snowflake / complex
  /// Static checker verdict ("satisfiable" / "empty" / "empty-by-stats"),
  /// empty when the check did not run. A short-circuited query has no
  /// plan/execute phases — the verdict explains why.
  std::string static_verdict;
  /// True when the plan (and verdict) came from the engine's plan cache
  /// instead of being computed; `cache_template` then names the template
  /// ("t:<hash>"). Rendered as "plan: cached" only when set, so traces of
  /// cache-less engines are unchanged.
  bool plan_cached = false;
  std::string cache_template;
  /// True when feedback-learned correction factors scaled the estimates
  /// that produced the plan (rendered as "est: corrected").
  bool est_corrected = false;
  std::vector<PhaseSpan> phases;
  PlannerTrace planner;
  ExecTrace exec;
  std::vector<StepTrace> steps;  // populated by ExplainAnalyze
  uint64_t num_results = 0;
  double est_total_cost = 0;   // sum of estimated step cardinalities
  uint64_t true_total_cost = 0;  // sum of true step cardinalities
  bool timed_out = false;
  /// True when the abort was a served cooperative cancellation.
  bool cancelled = false;
  double total_ms = 0;
  /// Final resource-tracker snapshot (probes, scans, materialized rows,
  /// build bytes, peak memory). Only rendered when `has_resources` is set,
  /// so traces from untracked executions are byte-identical to before.
  ResourceSnapshot resources;
  bool has_resources = false;

  void AddPhase(Phase phase, double ms) {
    phases.push_back({PhaseName(phase), ms});
  }
  /// Time of a named phase; -1 when the phase was not recorded.
  double PhaseMs(const std::string& name) const;

  /// Machine-readable trace (schema documented in DESIGN.md §Observability).
  std::string ToJson() const;
  /// Human-readable rendering: step table + phase breakdown + totals.
  std::string ToTable() const;
};

/// q-error (Section 7): max(max(1,e)/max(1,c), max(1,c)/max(1,e)).
/// NaN estimates propagate (approaches without a cardinality model).
double QError(double estimate, double truth);

}  // namespace shapestats::obs
