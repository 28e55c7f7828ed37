// QueryEngine: the batteries-included facade over the whole library.
// Owns the graph, builds all statistics artifacts once (global stats,
// SHACL shapes + annotation), and answers SPARQL SELECT queries with
// shape-statistics-optimized plans — the paper's system as a downstream
// user would consume it.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "analysis/diagnostics.h"
#include "analysis/shape_check.h"
#include "cache/plan_cache.h"
#include "card/estimator.h"
#include "engine/lifecycle.h"
#include "exec/select_executor.h"
#include "obs/accuracy_ledger.h"
#include "obs/flight_recorder.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "opt/plan.h"
#include "phys/physical_plan.h"
#include "rdf/graph.h"
#include "shacl/shapes.h"
#include "sparql/query_graph.h"
#include "stats/global_stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shapestats::engine {

struct FreshPlan;

struct EngineOptions {
  enum class Optimizer {
    kShapeStats,   // SS: annotated SHACL shapes + global stats (default)
    kGlobalStats,  // GS: extended-VoID statistics only
    kTextual,      // no optimizer: execute patterns in textual order
  };
  Optimizer optimizer = Optimizer::kShapeStats;
  /// Timeout and row budget of every execution. `exec.limit` must be 0
  /// (Open fails otherwise): a result limit is the query's own SPARQL LIMIT.
  exec::ExecOptions exec;
  /// Run analysis::PlanVerifier on every plan before execution (cheap,
  /// O(n^2) in the BGP size). A violation means a planner/estimator bug;
  /// the query fails with an Internal status and the
  /// analysis.plan_violations counter is bumped.
  bool verify_plans = true;
  /// Thread pool for preprocessing (statistics, shape annotation) and as
  /// the default pool for ExecuteBatch. Null means util::ThreadPool::Shared()
  /// (sized by SHAPESTATS_THREADS). Must outlive the engine.
  util::ThreadPool* pool = nullptr;
  /// Run the shape-aware static checker (analysis::ShapeChecker) before
  /// planning. A provably-empty verdict short-circuits to a zero-row result
  /// without invoking the optimizer or executor (static_check.* counters,
  /// query.static event) and is reported as QueryResult::verdict.
  bool static_check = true;
  /// Hand the checker's proven class memberships for untyped subject
  /// variables to the cardinality estimator as extra shape anchors
  /// (tighter SS plans). No effect when static_check is off or the
  /// optimizer has no shape statistics.
  bool infer_constraints = true;
  /// Physical join-operator policy (phys::PlanPhysical): auto (the rule of
  /// DESIGN.md §9), or inlj / merge forced everywhere. Every mode produces
  /// byte-identical results — only the work profile changes. ASK and LIMIT
  /// queries always run on the streaming INLJ executor (early termination
  /// beats materialization), with the downgrade recorded in the plan.
  phys::JoinMode join_mode = phys::JoinMode::kAuto;
  /// Plan cache over canonicalized BGP templates (src/cache/): repeated
  /// query templates skip static-check + optimize + physical planning, and
  /// ledger-observed estimation errors feed back into future plans for the
  /// same template. Off by default.
  enum class PlanCacheMode : uint8_t { kOn, kOff };
  PlanCacheMode plan_cache = PlanCacheMode::kOff;
  /// Capacity and learning switch of the plan cache (unused when the cache
  /// is off).
  cache::PlanCache::Options plan_cache_options;
  /// Live query registry (obs::QueryRegistry::Global()): every Execute /
  /// ExecuteBatch slot registers a record with phase, step progress, and a
  /// per-query ResourceTracker; /debug/queries and the shell's .running
  /// render it, and Cancel(id) requests cooperative cancellation served on
  /// the executors' next work tick. On by default. Off, queries carry no
  /// tracker and pay zero accounting cost (untraced executions skip even
  /// the per-tick publication).
  enum class RegistryMode : uint8_t { kOn, kOff };
  RegistryMode registry = RegistryMode::kOn;
};

const char* OptimizerName(EngineOptions::Optimizer opt);

/// Result of one query: the solution table plus the plan that produced it.
/// ASK queries set `ask`; COUNT(*) queries set `count` (the table then has
/// no rows, but its timed_out / cancelled flags still mark a truncated
/// answer).
struct QueryResult {
  exec::ResultTable table;
  opt::Plan plan;
  /// Operator choices for `plan`'s join order (empty for short-circuited
  /// queries). When no step materializes, execution stayed on the
  /// streaming depth-first executor.
  phys::PhysicalPlan phys;
  sparql::QueryShape shape = sparql::QueryShape::kComplex;
  /// The static verdict the query was answered under, from the checker or
  /// the plan cache: anything but kSatisfiable means the answer came from
  /// the verdict alone. kSatisfiable when static_check is off.
  analysis::Satisfiability verdict = analysis::Satisfiability::kSatisfiable;
  std::optional<bool> ask;
  std::optional<uint64_t> count;
  double plan_ms = 0;   // parse + optimize
  double total_ms = 0;  // parse + optimize + execute
};

/// Result of ExplainAnalyze: the query runs once as a traced Execute and
/// the plan is annotated with estimated vs. true cardinality, q-error, and
/// work counters per join step plus per-phase timings.
struct AnalyzeResult {
  obs::QueryTrace trace;
  /// Human-readable rendering (step table + phases + totals).
  std::string text;
  /// Machine-readable trace (same schema as QueryTrace::ToJson).
  std::string json;
};

/// Options for ExecuteBatch.
struct BatchOptions {
  /// Pool the batch fans out on. Null falls back to EngineOptions::pool,
  /// then to util::ThreadPool::Shared(). A 1-thread pool executes the batch
  /// sequentially on the calling thread.
  util::ThreadPool* pool = nullptr;
  /// Collect a per-query obs::QueryTrace (BatchResult::traces, index-aligned
  /// with the input).
  bool collect_traces = false;
  /// When nonzero, stamped as "request_id" on every batch.* event this batch
  /// emits into the obs::EventLog, so serving-plane requests (which carry the
  /// same id on their http.request.* events) are attributable to the engine
  /// work they caused.
  uint64_t request_id = 0;
};

/// Result of one ExecuteBatch call. `results[i]` is the outcome of
/// `queries[i]` — slot order never depends on scheduling, so batch output is
/// deterministic and directly comparable against sequential execution.
struct BatchResult {
  std::vector<Result<QueryResult>> results;
  std::vector<obs::QueryTrace> traces;  // empty unless collect_traces
  /// Process-unique id stamped on every event this batch emits into the
  /// obs::EventLog, so a batch's events can be correlated slot-for-slot
  /// with `results` even when several batches interleave.
  uint64_t batch_id = 0;
  double wall_ms = 0;        // end-to-end batch wall time
  double sum_query_ms = 0;   // sum of per-query times (sequential-equivalent)
};

/// Movable handle; all state lives behind one stable heap allocation so
/// the internal estimator's references survive moves.
class QueryEngine {
 public:
  /// Takes ownership of a finalized graph and runs all preprocessing
  /// (global statistics; shape generation + annotation in kShapeStats mode).
  static Result<QueryEngine> Open(rdf::Graph graph, EngineOptions options = {});

  /// Loads an N-Triples file, parsing it on `options.pool` (the shared pool
  /// when null), and opens it.
  static Result<QueryEngine> FromNTriplesFile(const std::string& path,
                                              EngineOptions options = {});

  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// Parses, plans, and executes a SELECT query. When `trace` is non-null
  /// it is filled with per-phase spans (obs::Phase: parse, encode,
  /// analyze, static-check, plan, estimate, execute), planner decision
  /// counters, and executor probe/scan counters. A truncated ASK (timeout,
  /// row cap or cancellation before any solution was found) fails with an
  /// Aborted status naming the cause, since its answer is unknown.
  Result<QueryResult> Execute(std::string_view sparql,
                              obs::QueryTrace* trace = nullptr) const;

  /// Executes a workload of queries concurrently over the shared immutable
  /// graph and statistics. Each query runs exactly as Execute would run it
  /// (same plans, same results); only scheduling differs. Per-query failures
  /// land in their result slot — the batch itself never aborts early.
  BatchResult ExecuteBatch(const std::vector<std::string>& queries,
                           const BatchOptions& options = {}) const;

  /// Parses and plans without executing; returns a human-readable plan
  /// description (pattern order with estimates and the operators Execute
  /// would run on a plan-cache miss, ASK/LIMIT pipelining included),
  /// followed by the lint and (when static_check is on) checker findings.
  Result<std::string> Explain(std::string_view sparql) const;

  /// Static analysis without planning or executing: the Cartesian-product
  /// lint merged with the ShapeChecker's satisfiability verdict, findings
  /// and inferred constraints. The shell's .check and its pre-query
  /// warnings show it; stats_lint runs the same two analyzers offline.
  Result<analysis::ShapeCheckResult> StaticCheck(std::string_view sparql) const;

  /// EXPLAIN ANALYZE: runs the query once as a traced Execute (same
  /// registry record, plan cache, plan, operators and early termination)
  /// and reports per-step estimated vs. true cardinality with q-error, rows
  /// scanned and index probes, plus per-phase timings — in table and JSON
  /// form, followed by the StaticCheck findings. ASK, LIMIT and
  /// truncated runs report their per-step counts up to the early stop, and
  /// their q-errors as n/a (those counts are not true cardinalities). A
  /// query Execute answers as provably empty is re-run on the textual-order
  /// INLJ oracle (FILTERs applied); any solution it finds is a checker bug,
  /// counted in static_check.violations.
  Result<AnalyzeResult> ExplainAnalyze(std::string_view sparql) const;

  const rdf::Graph& graph() const { return state_->graph; }
  const stats::GlobalStats& global_stats() const { return state_->gs; }
  /// Annotated shapes (empty in kGlobalStats / kTextual modes).
  const shacl::ShapesGraph& shapes() const { return state_->shapes; }
  const EngineOptions& options() const { return state_->options; }

  /// Workload q-error ledger: every traced execution (Execute with a trace,
  /// ExecuteBatch with collect_traces, ExplainAnalyze) of an exact query
  /// (no ASK / LIMIT / timeout truncating the true cardinalities) records
  /// its per-step q-errors here, keyed by optimizer, query shape,
  /// statistics source, and join type. Rendered by the shell's `.accuracy`.
  const obs::AccuracyLedger& accuracy_ledger() const { return state_->ledger; }
  void ResetAccuracyLedger() const { state_->ledger.Reset(); }

  /// The plan cache, or null when EngineOptions::plan_cache is off.
  /// Internally synchronized; safe to inspect concurrently with query
  /// execution.
  cache::PlanCache* plan_cache() const { return state_->plan_cache.get(); }

  /// The live query registry this engine registers executions into, or
  /// null when EngineOptions::registry is off. Internally synchronized.
  obs::QueryRegistry* query_registry() const { return state_->sinks.registry; }

  /// The process flight recorder when any anomaly trigger is configured
  /// (SHAPESTATS_FLIGHT_DIR / _SLOW_MS / _QERROR), else null.
  obs::FlightRecorder* flight_recorder() const { return state_->sinks.flight; }

 private:
  struct State {
    rdf::Graph graph;
    stats::GlobalStats gs;
    shacl::ShapesGraph shapes;
    std::unique_ptr<card::CardinalityEstimator> estimator;
    EngineOptions options;
    // Mutated from const query paths; AccuracyLedger is internally
    // synchronized, and unique_ptr does not propagate const.
    obs::AccuracyLedger ledger;
    // Null when the plan cache is disabled. Internally synchronized.
    std::unique_ptr<cache::PlanCache> plan_cache;
    // Telemetry sinks of every query (resolved once at Open): the process
    // query registry when enabled, the flight recorder when any anomaly
    // trigger is configured, the event log, the Chrome tracer and the
    // engine's metrics.
    Sinks sinks;
  };

  QueryEngine() = default;

  /// Execute with caller identity for the registry record; Execute and
  /// ExecuteBatch are thin wrappers.
  Result<QueryResult> ExecuteInternal(std::string_view sparql,
                                      obs::QueryTrace* trace,
                                      const Caller& caller) const;

  /// The uncached half of planning, shared by Execute (on a plan-cache
  /// miss) and Explain: the static verdict (when enabled), the checker's
  /// class anchors, the feedback corrections in force for `tmpl` (when
  /// non-null), the join order and the physical operators. A provably-empty
  /// query is not planned. `life` (null for Explain) gets the verdict and
  /// the plan phase, and its trace the planner counters.
  Result<FreshPlan> PlanUncached(const sparql::ParsedQuery& query,
                                 const sparql::EncodedBgp& bgp,
                                 const cache::CanonicalTemplate* tmpl,
                                 QueryLifecycle* life) const;

  /// `inferred` optionally carries the static checker's proven class
  /// anchors, merged into the estimator's rdf:type anchors for this query.
  /// `corrections` (per instance pattern, parallel to bgp.patterns)
  /// optionally scales the estimator's cardinalities by feedback-learned
  /// factors (card::CorrectedProvider); the factors are stamped onto the
  /// returned plan's correction_factors.
  Result<opt::Plan> PlanQuery(
      const sparql::EncodedBgp& bgp, obs::PlannerTrace* trace = nullptr,
      const std::unordered_map<sparql::VarId, rdf::TermId>* inferred = nullptr,
      const std::vector<double>* corrections = nullptr) const;

  /// Annotates `plan` with physical operators (EngineOptions::join_mode)
  /// and, when verify_plans is set, validates the result against the
  /// phys.* rule catalog (Internal status on violation — a planner bug).
  Result<phys::PhysicalPlan> PlanPhysicalFor(const sparql::EncodedBgp& bgp,
                                             const opt::Plan& plan) const;

  /// Checker over this engine's statistics (shapes only when present).
  analysis::ShapeChecker Checker() const;

  /// Builds trace->steps from the plan, the per-pattern estimate details,
  /// and the executor's measured per-step cardinalities, with each step's
  /// physical operator and build/probe estimates from `pplan`, then records
  /// the steps into the ledger when `record` is set and emits per-step
  /// events. `record` marks an exact run: without it the counts stopped
  /// early, and every step's q-error is NaN.
  void FillStepTraces(const sparql::ParsedQuery& query, const opt::Plan& plan,
                      const phys::PhysicalPlan& pplan,
                      const std::vector<card::EstimateDetail>& details,
                      const std::vector<uint64_t>& true_cards,
                      obs::QueryTrace* trace, bool record) const;

  std::unique_ptr<State> state_;
};

}  // namespace shapestats::engine
