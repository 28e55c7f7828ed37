// One query's path through QueryEngine::Execute as the telemetry sinks see
// it. A QueryLifecycle lives for one execution and is the only code that
// feeds the sinks: the caller's QueryTrace (phase spans, plan and totals),
// the live query registry (phase, template, step count, outcome), the event
// log (query.start / query.static / query.plan / query.finish), the Chrome
// trace (the query span with one sub-span per phase), the engine metrics
// and the flight recorder's anomaly triggers. Phases come from one enum
// (obs::Phase) with one name table, and every query ends on one Finish
// path with one obs::Outcome.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/shape_check.h"
#include "cache/plan_cache.h"
#include "exec/executor.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_phase.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "opt/plan.h"
#include "phys/physical_plan.h"
#include "sparql/query_graph.h"

namespace shapestats::engine {

struct QueryResult;

/// Who asked for one execution: the serving-plane request id, the engine
/// batch id and the slot within the batch (all 0 for a direct Execute).
struct Caller {
  uint64_t request_id = 0;
  uint64_t batch_id = 0;
  uint32_t slot = 0;
};

/// The telemetry sinks one engine feeds, resolved once when it opens. The
/// registry and flight recorder are null when disabled. The event log and
/// Chrome tracer are the process-wide ones; whether they are listening is
/// still read per query (one relaxed load each), because subscribers and
/// trace files may attach after the engine opened.
struct Sinks {
  obs::QueryRegistry* registry = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::EventLog* log = nullptr;
  obs::ChromeTracer* tracer = nullptr;
  /// The engine's plan cache, whose counters ride in flight bundles.
  const cache::PlanCache* plan_cache = nullptr;
  obs::Counter* queries = nullptr;
  obs::Counter* short_circuits = nullptr;
  obs::Histogram* query_ms = nullptr;
  // Physical plans executed and their join operators, as they ran.
  obs::Counter* phys_plans = nullptr;
  obs::Counter* phys_merge_steps = nullptr;
  obs::Counter* phys_inlj_steps = nullptr;
  // Per-query resource distributions of executed queries: index probes,
  // rows scanned, rows materialized, peak bytes and build bytes.
  obs::HistogramGroup* resources = nullptr;

  static Sinks Resolve(obs::QueryRegistry* registry,
                       obs::FlightRecorder* flight,
                       const cache::PlanCache* plan_cache);
};

class QueryLifecycle {
 public:
  /// Registers the query (when the registry is on) and enters kParse.
  /// `sparql` and `trace` must outlive the lifecycle. A lifecycle destroyed
  /// before Finish completes its registry record with outcome "error".
  QueryLifecycle(const Sinks& sinks, std::string_view sparql,
                 obs::QueryTrace* trace, const Caller& caller);

  QueryLifecycle(const QueryLifecycle&) = delete;
  QueryLifecycle& operator=(const QueryLifecycle&) = delete;

  obs::QueryTrace* trace() const { return trace_; }
  /// The query's resource tracker: the registry record's, or a local one
  /// for a traced execution without a registry; null otherwise.
  obs::ResourceTracker* tracker() { return tracker_; }

  /// Closes the current phase (its QueryTrace span and Chrome sub-span)
  /// and enters `next`, which the registry shows while the query runs.
  void Enter(obs::Phase next);

  /// The BGP is encoded and classified: emits query.start.
  void Started(sparql::QueryShape shape, size_t num_patterns);
  /// The query's plan-cache template; `cached` is the entry serving it.
  void Template(uint64_t hash, const cache::CachedPlan* cached);
  /// The static verdict. `check` is the checker's full result when it ran
  /// for this query (null when the verdict came from the cache).
  void Verdict(analysis::Satisfiability verdict,
               const analysis::ShapeCheckResult* check);
  /// The plan is final: stamps plan_ms, hands the executor the trace's
  /// counters, counts the physical plan's join operators, emits query.plan
  /// and records the step count.
  void Planned(QueryResult* result, exec::ExecOptions* eopts);

  /// The one finish path, for every outcome: closes the last phase, stamps
  /// the totals on `result` and the trace, then — on traced executions —
  /// runs `annotate_steps` (per-step trace records, which the flight
  /// recorder's q-error trigger reads), and reports: metrics, registry
  /// completion, flight triggers and query.finish.
  template <typename AnnotateSteps>
  void Finish(QueryResult* result, obs::Outcome outcome, uint64_t num_results,
              AnnotateSteps&& annotate_steps) {
    Close(result, outcome, num_results);
    if (trace_ != nullptr && outcome != obs::Outcome::kStaticEmpty) {
      annotate_steps();
    }
    Report(*result, outcome, num_results);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Records the current phase's span, ending at `now`.
  void ClosePhase(Clock::time_point now);
  void Close(QueryResult* result, obs::Outcome outcome, uint64_t num_results);
  void Report(const QueryResult& result, obs::Outcome outcome,
              uint64_t num_results);

  const Sinks& sinks_;
  const std::string_view sparql_;
  obs::QueryTrace* const trace_;
  const Caller caller_;
  obs::TraceSpan span_;
  const Clock::time_point start_;
  Clock::time_point end_;
  /// Phase spans are timed only for a QueryTrace or an enabled tracer.
  const bool timed_phases_;
  obs::Phase phase_ = obs::Phase::kParse;
  Clock::time_point phase_start_;
  bool has_template_ = false;
  uint64_t template_hash_ = 0;
  obs::QueryRegistry::Registration reg_;
  std::optional<obs::ResourceTracker> local_tracker_;
  obs::ResourceTracker* tracker_ = nullptr;
  obs::ResourceSnapshot resources_;
};

/// A self-contained flight-recorder bundle for one execution: query text,
/// caller identity, the logical and physical plan with per-step rationale,
/// the trace (per-step estimated and true cardinalities when the run was
/// traced), the final resource snapshot, plan-cache and feedback state,
/// and the build info.
std::string BuildFlightBundle(const char* trigger, std::string_view sparql,
                              obs::Outcome outcome, const opt::Plan& plan,
                              const phys::PhysicalPlan& pplan, double total_ms,
                              uint64_t num_results, const obs::QueryTrace* trace,
                              const obs::ResourceSnapshot* resources,
                              const std::string& cache_template,
                              const cache::PlanCache* pcache,
                              const Caller& caller);

}  // namespace shapestats::engine
