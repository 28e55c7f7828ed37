#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>

#include "analysis/plan_verify.h"
#include "analysis/query_lint.h"
#include "card/corrected.h"
#include "exec/executor.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "phys/planner.h"
#include "rdf/ntriples.h"
#include "shacl/generator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace shapestats::engine {

/// What planning decides on a plan-cache miss (QueryEngine::PlanUncached).
struct FreshPlan {
  /// The checker's result; satisfiable with no findings when the static
  /// check is off.
  analysis::ShapeCheckResult check;
  /// A provably-empty verdict that lint errors keep from short-circuiting.
  bool lint_errors = false;
  /// The query is provably empty: it is answered without a plan.
  bool empty = false;
  std::unordered_map<sparql::VarId, rdf::TermId> inferred_anchors;
  /// The template's feedback version and, in canonical pattern order, the
  /// correction factors planned under (empty when every factor is 1).
  uint64_t feedback_version = 0;
  std::vector<double> corrections_canon;
  opt::Plan plan;
  phys::PhysicalPlan phys;
};

namespace {

/// The plan provider of a query answered from its static verdict alone.
constexpr char kStaticEmpty[] = "static-empty";

/// Per-thread front-end state reused across queries: the one-pass encoder
/// and the canonical template keep their buffers' capacity, so the front
/// end of a repeated query shape allocates only what the query keeps.
/// Query execution never re-enters the engine on the same thread.
struct Scratch {
  sparql::BgpEncoder encoder;
  cache::CanonicalTemplate tmpl;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

struct EncodedQuery {
  sparql::ParsedQuery query;
  sparql::EncodedBgp bgp;
};

/// The one-pass front end, for callers that time no phases.
Result<EncodedQuery> ParseAndEncode(std::string_view sparql,
                                    const rdf::TermDictionary& dict) {
  sparql::BgpEncoder& encoder = ThreadScratch().encoder;
  ASSIGN_OR_RETURN(sparql::ParsedQuery query,
                   sparql::ParseQuery(sparql, &encoder));
  return EncodedQuery{std::move(query), encoder.Finish(dict)};
}

/// Feedback-learned correction factors for `tmpl`, per instance pattern;
/// empty when every factor is 1. `canon` receives the factors in canonical
/// pattern order, empty likewise.
std::vector<double> InstanceCorrections(const cache::PlanCache& pcache,
                                        const cache::CanonicalTemplate& tmpl,
                                        size_t num_patterns,
                                        std::vector<double>* canon) {
  std::vector<double> factors =
      pcache.feedback().Factors(tmpl.hash, num_patterns);
  std::vector<double> instance;
  if (std::any_of(factors.begin(), factors.end(),
                  [](double f) { return f != 1.0; })) {
    instance.resize(num_patterns);
    for (size_t i = 0; i < num_patterns; ++i) {
      instance[i] = factors[tmpl.instance_to_canon[i]];
    }
  } else {
    factors.clear();
  }
  *canon = std::move(factors);
  return instance;
}

/// The plan-cache entry for a freshly planned template: its verdict and,
/// unless that short-circuits the query, its anchors and plans in canonical
/// numbering. The physical plan is cached before any ASK/LIMIT pipelining
/// downgrade, which is applied per instance.
std::shared_ptr<cache::CachedPlan> CacheEntry(
    const cache::CanonicalTemplate& tmpl, size_t num_patterns, bool checked,
    const FreshPlan& fresh) {
  auto entry = std::make_shared<cache::CachedPlan>();
  entry->template_hash = tmpl.hash;
  entry->short_id = tmpl.ShortId();
  entry->num_patterns = static_cast<uint32_t>(num_patterns);
  entry->checked = checked;
  entry->verdict = fresh.check.verdict;
  entry->rule = fresh.check.rule;
  entry->feedback_version = fresh.feedback_version;
  if (fresh.empty) return entry;
  entry->lint_errors = fresh.lint_errors;
  for (const auto& [var, cls] : fresh.inferred_anchors) {
    entry->inferred.emplace_back(tmpl.var_instance_to_canon[var], cls);
  }
  entry->plan = cache::PlanToCanonical(fresh.plan, tmpl);
  entry->phys = cache::PhysToCanonical(fresh.phys, tmpl);
  entry->corrections = fresh.corrections_canon;
  return entry;
}

/// Takes the verdict and plans of a plan-cache hit, which are valid for
/// every instance of the template (estimates and emptiness rules are
/// value-independent given the key's concrete predicates, class constants,
/// and constant-distinctness classes). True when the cached verdict proves
/// the query empty.
bool FromCache(const cache::CachedPlan& cached,
               const cache::CanonicalTemplate& tmpl, bool infer_constraints,
               QueryLifecycle* life,
               std::unordered_map<sparql::VarId, rdf::TermId>* inferred_anchors,
               QueryResult* result) {
  if (cached.checked) {
    life->Verdict(cached.verdict, nullptr);
    if (cached.verdict != analysis::Satisfiability::kSatisfiable &&
        !cached.lint_errors) {
      return true;
    }
    if (infer_constraints) {
      for (const auto& [canon_var, cls] : cached.inferred) {
        if (canon_var < tmpl.var_canon_to_instance.size()) {
          (*inferred_anchors)[tmpl.var_canon_to_instance[canon_var]] = cls;
        }
      }
    }
    life->Enter(obs::Phase::kPlan);
  }
  result->plan = cache::PlanToInstance(cached.plan, tmpl);
  result->phys = cache::PhysToInstance(cached.phys, tmpl);
  return false;
}

/// The answer to a query proven empty (by the checker or the cache): zero
/// rows, no optimize or execute.
void AnswerEmpty(const sparql::ParsedQuery& query,
                 const sparql::EncodedBgp& bgp, QueryResult* result) {
  result->plan.provider = kStaticEmpty;
  if (query.is_ask) {
    result->ask = false;
  } else if (query.count_aggregate) {
    result->count = 0;
  } else if (query.select_all) {
    result->table.var_names = bgp.var_names;
  } else {
    for (const sparql::Variable& v : query.projection) {
      result->table.var_names.push_back(v.name);
    }
  }
}

/// COUNT(*) runs as the SELECT * whose BGP matches it counts.
void CountAsSelectAll(sparql::ParsedQuery* query) {
  query->count_aggregate = false;
  query->select_all = true;
  query->projection.clear();
}

/// ASK and LIMIT queries stay on the streaming depth-first executor (early
/// termination beats materializing): a plan that would materialize is
/// downgraded to INLJ, recorded in each downgraded step's rationale. A
/// COUNT(*)'s LIMIT bounds its one solution, not the rows it counts.
void PipelineEarlyStop(const sparql::ParsedQuery& query,
                       phys::PhysicalPlan* pplan) {
  const bool stops_early =
      query.is_ask || (query.limit.has_value() && !query.count_aggregate);
  if (stops_early && pplan->Materializes()) {
    phys::ForceInlj(pplan, "pipelined: ASK/LIMIT early termination");
  }
}

/// The truncation, if any, that stopped a run.
obs::Outcome OutcomeOf(const exec::ResultTable& table) {
  if (table.cancelled) return obs::Outcome::kCancelled;
  if (table.row_capped) return obs::Outcome::kRowCap;
  if (table.timed_out) return obs::Outcome::kTimeout;
  return obs::Outcome::kOk;
}

/// Per-step observed/estimated ratios attributed to the pattern each step
/// introduced, expressed against the *uncorrected* estimate (applied
/// factors composed back in) in canonical pattern numbering. Step 0 blames
/// the opening scan's pattern directly; step k >= 1 blames its pattern
/// with the incremental ratio (true_k/true_{k-1}) / (est_k/est_{k-1}), so
/// upstream misestimates are not double-counted downstream.
std::vector<cache::FeedbackStore::Sample> FeedbackSamples(
    const cache::CanonicalTemplate& tmpl, const opt::Plan& plan,
    const std::vector<uint64_t>& truth) {
  std::vector<cache::FeedbackStore::Sample> samples;
  const std::vector<double>& est = plan.step_estimates;
  const std::vector<double>& factors = plan.correction_factors;
  const size_t n = std::min(est.size(), truth.size());
  double prev_t = 0;
  double prev_e = 0;
  for (size_t k = 0; k < n && k < plan.order.size(); ++k) {
    const uint32_t tp = plan.order[k];
    if (tp >= tmpl.instance_to_canon.size()) break;
    const double applied = tp < factors.size() ? factors[tp] : 1.0;
    // A true count of zero still carries signal (the estimate was high);
    // clamp to 0.5 so the log-ratio stays finite.
    const double t = std::max(static_cast<double>(truth[k]), 0.5);
    const double e = est[k];
    if (!(e > 0) || !std::isfinite(e)) break;
    double ratio;
    if (k == 0) {
      ratio = t / e * applied;
    } else {
      if (!(prev_t > 0) || !(prev_e > 0)) break;
      ratio = (t / prev_t) / (e / prev_e) * applied;
    }
    samples.push_back({tmpl.instance_to_canon[tp], ratio});
    // Once the true intermediate hits zero every later step is zero too —
    // no attributable signal remains.
    if (truth[k] == 0) break;
    prev_t = t;
    prev_e = e;
  }
  return samples;
}

}  // namespace

const char* OptimizerName(EngineOptions::Optimizer opt) {
  switch (opt) {
    case EngineOptions::Optimizer::kShapeStats: return "shape-stats";
    case EngineOptions::Optimizer::kGlobalStats: return "global-stats";
    case EngineOptions::Optimizer::kTextual: return "textual";
  }
  return "?";
}

Result<QueryEngine> QueryEngine::Open(rdf::Graph graph, EngineOptions options) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized before Open");
  }
  if (options.exec.limit != 0) {
    return Status::InvalidArgument(
        "EngineOptions::exec.limit is not supported; limit results with the "
        "query's SPARQL LIMIT");
  }
  Timer open_timer;
  obs::TraceSpan open_span("engine", "open");
  QueryEngine engine;
  engine.state_ = std::make_unique<State>();
  State& st = *engine.state_;
  st.options = options;
  st.graph = std::move(graph);
  util::ThreadPool* pool = options.pool;
  Timer phase;
  {
    obs::TraceSpan span("engine", "preprocess:global_stats");
    st.gs = stats::GlobalStats::Compute(st.graph, pool);
  }
  obs::MetricsRegistry::Global().Observe("engine.preprocess.global_stats_ms",
                                         phase.ElapsedMs());

  switch (options.optimizer) {
    case EngineOptions::Optimizer::kShapeStats: {
      phase.Reset();
      Result<shacl::ShapesGraph> shapes = [&] {
        obs::TraceSpan span("engine", "preprocess:generate_shapes");
        return shacl::GenerateShapes(st.graph);
      }();
      obs::MetricsRegistry::Global().Observe(
          "engine.preprocess.generate_shapes_ms", phase.ElapsedMs());
      // Data without rdf:type triples cannot anchor shapes; degrade to
      // global statistics rather than failing.
      if (shapes.ok()) {
        st.shapes = std::move(shapes).value();
        phase.Reset();
        {
          obs::TraceSpan span("engine", "preprocess:annotate_shapes");
          RETURN_NOT_OK(
              stats::AnnotateShapes(st.graph, &st.shapes, pool).status());
        }
        obs::MetricsRegistry::Global().Observe("engine.preprocess.annotate_ms",
                                               phase.ElapsedMs());
        st.estimator = std::make_unique<card::CardinalityEstimator>(
            st.gs, &st.shapes, st.graph.dict(), card::StatsMode::kShape);
      } else {
        st.estimator = std::make_unique<card::CardinalityEstimator>(
            st.gs, nullptr, st.graph.dict(), card::StatsMode::kGlobal);
      }
      break;
    }
    case EngineOptions::Optimizer::kGlobalStats:
      st.estimator = std::make_unique<card::CardinalityEstimator>(
          st.gs, nullptr, st.graph.dict(), card::StatsMode::kGlobal);
      break;
    case EngineOptions::Optimizer::kTextual:
      break;
  }
  if (options.plan_cache == EngineOptions::PlanCacheMode::kOn) {
    st.plan_cache =
        std::make_unique<cache::PlanCache>(options.plan_cache_options);
  }
  st.sinks = Sinks::Resolve(
      options.registry == EngineOptions::RegistryMode::kOn
          ? &obs::QueryRegistry::Global()
          : nullptr,
      obs::FlightRecorder::Global().active() ? &obs::FlightRecorder::Global()
                                             : nullptr,
      st.plan_cache.get());
  obs::PublishPoolMetrics(pool != nullptr ? *pool : util::ThreadPool::Shared());
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    log.Emit(obs::Event("engine.open")
                 .Str("optimizer", OptimizerName(options.optimizer))
                 .Uint("triples", st.graph.NumTriples())
                 .Uint("index_bytes", st.graph.IndexBytes())
                 .Uint("shapes", st.shapes.NumNodeShapes())
                 .Num("ms", open_timer.ElapsedMs()));
  }
  return engine;
}

Result<QueryEngine> QueryEngine::FromNTriplesFile(const std::string& path,
                                                  EngineOptions options) {
  rdf::Graph graph;
  Timer phase;
  {
    obs::TraceSpan span("engine", "preprocess:load");
    RETURN_NOT_OK(rdf::LoadNTriplesFile(path, &graph, options.pool));
  }
  obs::MetricsRegistry::Global().Observe("engine.preprocess.load_ms",
                                         phase.ElapsedMs());
  phase.Reset();
  {
    obs::TraceSpan span("engine", "preprocess:finalize");
    graph.Finalize(options.pool);
  }
  obs::MetricsRegistry::Global().Observe("engine.preprocess.finalize_ms",
                                         phase.ElapsedMs());
  return Open(std::move(graph), options);
}

analysis::ShapeChecker QueryEngine::Checker() const {
  return analysis::ShapeChecker(
      state_->gs,
      state_->shapes.NumNodeShapes() > 0 ? &state_->shapes : nullptr,
      state_->graph.dict());
}

Result<opt::Plan> QueryEngine::PlanQuery(
    const sparql::EncodedBgp& bgp, obs::PlannerTrace* trace,
    const std::unordered_map<sparql::VarId, rdf::TermId>* inferred,
    const std::vector<double>* corrections) const {
  opt::Plan plan;
  if (state_->estimator == nullptr) {
    plan.provider = "textual";
    plan.order.resize(bgp.patterns.size());
    std::iota(plan.order.begin(), plan.order.end(), 0);
    plan.step_estimates.assign(bgp.patterns.size(), 0);
    // Textual order executes as written; record whether that order forces
    // Cartesian steps so the plan verifier judges it by the same contract
    // as optimized plans.
    for (size_t k = 1; k < plan.order.size() && !plan.has_cartesian; ++k) {
      bool joins = false;
      for (size_t j = 0; j < k && !joins; ++j) {
        joins = sparql::Joinable(bgp.patterns[plan.order[j]],
                                 bgp.patterns[plan.order[k]]);
      }
      plan.has_cartesian = !joins;
    }
  } else {
    // Static-checker-proven class anchors tighten the shape estimates for
    // untyped subject variables (per-query provider view; the shared
    // estimator stays untouched).
    const card::PlannerStatsProvider* provider = state_->estimator.get();
    std::optional<card::AnchoredEstimator> anchored;
    if (inferred != nullptr && !inferred->empty()) {
      anchored.emplace(*state_->estimator, *inferred);
      provider = &*anchored;
    }
    if (corrections != nullptr && !corrections->empty()) {
      // Feedback-learned adjustment factors scale the per-pattern
      // cardinalities (card::CorrectedProvider) — same provider label, so
      // ledger populations stay comparable.
      card::CorrectedProvider corrected(*provider, *corrections);
      plan = opt::PlanJoinOrder(bgp, corrected, trace);
      plan.correction_factors = *corrections;
    } else {
      plan = opt::PlanJoinOrder(bgp, *provider, trace);
    }
  }
  if (state_->options.verify_plans) {
    analysis::Diagnostics diags = analysis::PlanVerifier().Verify(plan, bgp);
    if (analysis::HasErrors(diags)) {
      return Status::Internal("plan failed verification:\n" +
                              analysis::ToText(diags));
    }
  }
  return plan;
}

Result<phys::PhysicalPlan> QueryEngine::PlanPhysicalFor(
    const sparql::EncodedBgp& bgp, const opt::Plan& plan) const {
  phys::PlannerOptions popts;
  popts.mode = state_->options.join_mode;
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, state_->graph, popts);
  if (state_->options.verify_plans) {
    analysis::Diagnostics diags =
        analysis::PlanVerifier().Verify(pplan, plan, bgp);
    if (analysis::HasErrors(diags)) {
      return Status::Internal("physical plan failed verification:\n" +
                              analysis::ToText(diags));
    }
  }
  return pplan;
}

Result<analysis::Diagnostics> QueryEngine::Lint(std::string_view sparql) const {
  ASSIGN_OR_RETURN(EncodedQuery q, ParseAndEncode(sparql, state_->graph.dict()));
  analysis::Diagnostics diags =
      analysis::QueryLint(state_->gs, state_->graph.dict()).Lint(q.bgp);
  obs::EventLog& log = obs::EventLog::Global();
  if (!diags.empty() && log.active()) {
    log.Emit(obs::Event("lint")
                 .Uint("findings", diags.size())
                 .Str("first_rule", diags.front().rule));
  }
  return diags;
}

Result<analysis::ShapeCheckResult> QueryEngine::StaticCheck(
    std::string_view sparql) const {
  ASSIGN_OR_RETURN(EncodedQuery q, ParseAndEncode(sparql, state_->graph.dict()));
  analysis::Diagnostics lint =
      analysis::QueryLint(state_->gs, state_->graph.dict()).Lint(q.query, q.bgp);
  analysis::ShapeCheckResult check = Checker().Check(q.query, q.bgp);
  check.diagnostics.insert(check.diagnostics.begin(), lint.begin(),
                           lint.end());
  return check;
}

void QueryEngine::FillStepTraces(const sparql::ParsedQuery& query,
                                 const opt::Plan& plan,
                                 const phys::PhysicalPlan& pplan,
                                 const std::vector<card::EstimateDetail>& details,
                                 const std::vector<uint64_t>& true_cards,
                                 obs::QueryTrace* trace, bool record) const {
  for (size_t k = 0; k < plan.order.size(); ++k) {
    const uint32_t tp = plan.order[k];
    obs::StepTrace step;
    step.step = static_cast<uint32_t>(k + 1);
    step.pattern = tp;
    step.pattern_text = query.patterns[tp].ToString();
    if (k < pplan.steps.size()) {
      const phys::PhysicalStep& ps = pplan.steps[k];
      step.join_type = phys::OpName(ps.op);
      step.est_build = ps.est_left;
      step.est_probe = ps.est_right;
    }
    if (tp < details.size()) {
      step.source = details[tp].source;
      step.formula = details[tp].formula;
      step.tp_est = details[tp].est.card;
    } else {
      step.source = "textual";
    }
    step.est_card = k < plan.step_estimates.size() ? plan.step_estimates[k] : 0;
    step.true_card = k < true_cards.size() ? true_cards[k] : 0;
    step.q_error = record && state_->estimator != nullptr
                       ? obs::QError(step.est_card,
                                     static_cast<double>(step.true_card))
                       : std::numeric_limits<double>::quiet_NaN();
    if (k < trace->exec.step_rows_scanned.size()) {
      step.rows_scanned = trace->exec.step_rows_scanned[k];
      step.index_probes = trace->exec.step_probes[k];
    }
    trace->steps.push_back(std::move(step));
  }
  trace->true_total_cost =
      std::accumulate(true_cards.begin(), true_cards.end(), uint64_t{0});
  if (record) state_->ledger.Record(*trace);
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    for (const obs::StepTrace& s : trace->steps) {
      obs::Event ev("query.step");
      ev.Str("optimizer", trace->optimizer)
          .Str("query_shape", trace->query_shape)
          .Uint("step", s.step)
          .Str("source", s.source)
          .Str("join_type", s.join_type)
          .Num("est_card", s.est_card)
          .Uint("true_card", s.true_card);
      if (!std::isnan(s.q_error)) ev.Num("q_error", s.q_error);
      log.Emit(std::move(ev));
    }
  }
}

Result<QueryResult> QueryEngine::Execute(std::string_view sparql,
                                         obs::QueryTrace* trace) const {
  return ExecuteInternal(sparql, trace, Caller{});
}

Result<QueryResult> QueryEngine::ExecuteInternal(std::string_view sparql,
                                                 obs::QueryTrace* trace,
                                                 const Caller& caller) const {
  QueryLifecycle life(state_->sinks, sparql, trace, caller);
  Scratch& scratch = ThreadScratch();
  ASSIGN_OR_RETURN(sparql::ParsedQuery query,
                   sparql::ParseQuery(sparql, &scratch.encoder));
  // LIMIT and OFFSET apply to COUNT(*)'s single solution (SPARQL 1.1), not
  // to the rows it counts. A QueryResult cannot hold an aggregate with no
  // solution, so the forms that drop it are rejected.
  if (query.count_aggregate) {
    if (query.limit == 0u || query.offset > 0) {
      return Status::InvalidArgument(
          "COUNT(*) with LIMIT 0 or OFFSET >= 1 has no solution, and a "
          "count cannot express an empty result");
    }
    query.limit.reset();
  }
  life.Enter(obs::Phase::kEncode);
  const sparql::EncodedBgp bgp = scratch.encoder.Finish(state_->graph.dict());
  life.Enter(obs::Phase::kAnalyze);
  QueryResult result;
  result.shape = sparql::ClassifyShape(bgp);
  life.Started(result.shape, bgp.patterns.size());

  // The static verdict and the plans come from the plan cache when it
  // holds the query's template; the lookup belongs to the first phase it
  // can skip. Bypassed (uncacheable) queries and cache-less engines
  // compute them.
  life.Enter(state_->options.static_check ? obs::Phase::kStaticCheck
                                          : obs::Phase::kPlan);
  cache::PlanCache* pcache = state_->plan_cache.get();
  cache::CanonicalTemplate& tmpl = scratch.tmpl;
  bool cache_eligible = false;
  std::shared_ptr<const cache::CachedPlan> cached;
  if (pcache != nullptr) {
    cache::CanonicalizeTemplate(query, bgp, state_->gs.rdf_type_id, &tmpl);
    cache_eligible = tmpl.cacheable;
    if (cache_eligible) {
      cached = pcache->Get(tmpl.key);
      life.Template(tmpl.hash, cached.get());
    } else {
      pcache->NoteBypass();
    }
  }
  std::unordered_map<sparql::VarId, rdf::TermId> inferred_anchors;
  bool empty = false;
  if (cached != nullptr) {
    empty = FromCache(*cached, tmpl, state_->options.infer_constraints, &life,
                      &inferred_anchors, &result);
  } else {
    ASSIGN_OR_RETURN(FreshPlan fresh,
                     PlanUncached(query, bgp, cache_eligible ? &tmpl : nullptr,
                                  &life));
    if (cache_eligible) {
      pcache->Put(tmpl.key, CacheEntry(tmpl, bgp.patterns.size(),
                                       state_->options.static_check, fresh));
    }
    empty = fresh.empty;
    inferred_anchors = std::move(fresh.inferred_anchors);
    result.plan = std::move(fresh.plan);
    result.phys = std::move(fresh.phys);
  }
  if (empty) {
    AnswerEmpty(query, bgp, &result);
    life.Finish(&result, obs::Outcome::kStaticEmpty, 0, [] {});
    return result;
  }

  exec::ExecOptions eopts = state_->options.exec;
  const bool is_ask = query.is_ask;
  const bool is_count = query.count_aggregate;
  const bool has_limit = query.limit.has_value();
  PipelineEarlyStop(query, &result.phys);
  life.Planned(&result, &eopts);
  // Per-pattern estimate provenance annotates the step traces and feeds
  // the accuracy ledger, so only traced executions compute it.
  std::vector<card::EstimateDetail> details;
  if (trace != nullptr && state_->estimator != nullptr) {
    life.Enter(obs::Phase::kEstimate);
    details = state_->estimator->EstimateAllDetailed(bgp, &inferred_anchors);
  }
  life.Enter(obs::Phase::kExecute);
  eopts.resources = life.tracker();

  // One execution for every query form: ASK runs as a one-solution probe,
  // COUNT(*) as a SELECT * whose BGP match counter (bag semantics) is the
  // answer, and SELECT as written. The query is rewritten in place: only
  // the executor reads these fields from here on.
  if (is_ask) {
    query.limit = 1;
  } else if (is_count) {
    CountAsSelectAll(&query);
  }
  exec::ResultTable table;
  if (result.phys.Materializes()) {
    ASSIGN_OR_RETURN(table, phys::ExecuteSelectPhysical(state_->graph, query,
                                                        bgp, result.phys,
                                                        eopts));
  } else {
    ASSIGN_OR_RETURN(table, exec::ExecuteSelect(state_->graph, query, bgp,
                                                result.plan.order, eopts));
  }
  const obs::Outcome outcome = OutcomeOf(table);
  uint64_t num_results = table.rows.size();
  if (is_ask) {
    result.ask = !table.rows.empty();
  } else if (is_count) {
    num_results = table.bgp_matches;
    result.count = num_results;
  }
  if (is_ask || is_count) {
    // A truncated COUNT must not look exact to the caller.
    result.table.timed_out = table.timed_out;
    result.table.cancelled = table.cancelled;
    result.table.row_capped = table.row_capped;
  } else {
    result.table = std::move(table);
  }
  life.Finish(&result, outcome, num_results, [&] {
    // ASK probes, LIMIT and truncated runs stop early, so their per-step
    // counts are not true cardinalities: they get step annotations without
    // q-errors and stay out of the accuracy ledger and the feedback loop.
    const std::vector<uint64_t>& truth = trace->exec.step_rows_produced;
    const bool exact = !is_ask && !has_limit &&
                       outcome == obs::Outcome::kOk && !truth.empty();
    FillStepTraces(query, result.plan, result.phys, details, truth, trace,
                   exact);
    // Close the feedback loop: exact per-step truths become learned
    // adjustment factors for this template. A publication bumps the
    // template's feedback version, so its cached plan re-plans (under the
    // corrected estimates) on the next lookup.
    if (exact && cache_eligible && state_->estimator != nullptr) {
      std::vector<cache::FeedbackStore::Sample> samples =
          FeedbackSamples(tmpl, result.plan, truth);
      if (!samples.empty()) pcache->RecordFeedback(tmpl.hash, samples);
    }
  });
  // A truncated ASK that found no solution does not know its answer.
  if (is_ask && !*result.ask && obs::IsTruncation(outcome)) {
    return Status::Aborted(std::string("ASK truncated (") +
                           obs::OutcomeName(outcome) +
                           ") before any solution was found; the answer is "
                           "unknown");
  }
  return result;
}

Result<FreshPlan> QueryEngine::PlanUncached(
    const sparql::ParsedQuery& query, const sparql::EncodedBgp& bgp,
    const cache::CanonicalTemplate* tmpl, QueryLifecycle* life) const {
  FreshPlan fresh;
  cache::PlanCache* pcache = state_->plan_cache.get();
  // The feedback version is read before the factors so a concurrent
  // publication can only make the cached entry look stale (forcing a
  // harmless re-plan), never fresh.
  if (tmpl != nullptr) {
    fresh.feedback_version = pcache->feedback().Version(tmpl->hash);
  }
  // Shape-aware static check: a provably-empty BGP is answered with zero
  // rows, skipping optimize + execute; a satisfiable one may still
  // contribute inferred class anchors to the estimator.
  if (state_->options.static_check) {
    fresh.check = Checker().Check(query, bgp);
    const analysis::ShapeCheckResult& check = fresh.check;
    if (life != nullptr) life->Verdict(check.verdict, &check);
    if (check.provably_empty()) {
      // Degenerate queries (unbound projection / FILTER / ORDER BY
      // variables) must keep failing exactly as the executor would fail
      // them — only clean queries take the short-circuit.
      fresh.lint_errors = analysis::HasErrors(
          analysis::QueryLint(state_->gs, state_->graph.dict())
              .Lint(query, bgp));
      fresh.empty = !fresh.lint_errors;
      if (fresh.empty) return fresh;
    }
    if (state_->options.infer_constraints && !check.inferred.empty()) {
      fresh.inferred_anchors = check.InferredAnchors(state_->gs);
    }
    if (life != nullptr) life->Enter(obs::Phase::kPlan);
  }

  // Feedback-learned correction factors for this template, mapped into
  // instance pattern numbering.
  std::vector<double> corrections;
  if (tmpl != nullptr) {
    corrections = InstanceCorrections(*pcache, *tmpl, bgp.patterns.size(),
                                      &fresh.corrections_canon);
  }
  obs::QueryTrace* trace = life != nullptr ? life->trace() : nullptr;
  ASSIGN_OR_RETURN(
      fresh.plan,
      PlanQuery(bgp, trace != nullptr ? &trace->planner : nullptr,
                &fresh.inferred_anchors,
                corrections.empty() ? nullptr : &corrections));
  ASSIGN_OR_RETURN(fresh.phys, PlanPhysicalFor(bgp, fresh.plan));
  return fresh;
}

BatchResult QueryEngine::ExecuteBatch(const std::vector<std::string>& queries,
                                      const BatchOptions& options) const {
  static obs::Counter* batches =
      obs::MetricsRegistry::Global().GetCounter("engine.batches");
  static obs::Counter* batch_queries =
      obs::MetricsRegistry::Global().GetCounter("engine.batch_queries");
  static obs::Histogram* batch_ms =
      obs::MetricsRegistry::Global().GetHistogram("engine.batch_ms");
  util::ThreadPool& pool =
      options.pool != nullptr
          ? *options.pool
          : (state_->options.pool != nullptr ? *state_->options.pool
                                             : util::ThreadPool::Shared());
  // Process-unique id correlating this batch's events with its result slots.
  static std::atomic<uint64_t> next_batch_id{1};
  obs::EventLog& log = obs::EventLog::Global();
  BatchResult batch;
  batch.batch_id = next_batch_id.fetch_add(1, std::memory_order_relaxed);
  batch.results.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    batch.results.emplace_back(Status::Internal("query not executed"));
  }
  if (options.collect_traces) batch.traces.resize(queries.size());

  obs::TraceSpan span("engine", "batch");
  span.Arg("queries", std::to_string(queries.size()));
  span.Arg("pool", pool.label());
  if (log.active()) {
    obs::Event ev("batch.start");
    ev.Uint("batch_id", batch.batch_id)
        .Uint("queries", queries.size())
        .Str("pool", pool.label())
        .Uint("threads", pool.num_threads());
    if (options.request_id != 0) ev.Uint("request_id", options.request_id);
    log.Emit(std::move(ev));
  }
  Timer timer;
  // Queries only read the finalized graph and the immutable statistics (the
  // estimator's shape cache is internally synchronized), so they fan out
  // directly; every query writes only its own slot, which makes the batch
  // output independent of scheduling.
  pool.ParallelFor(0, queries.size(), [&](size_t i) {
    obs::QueryTrace* trace =
        options.collect_traces ? &batch.traces[i] : nullptr;
    const Caller caller{options.request_id, batch.batch_id,
                        static_cast<uint32_t>(i)};
    batch.results[i] = ExecuteInternal(queries[i], trace, caller);
    if (log.active()) {
      const Result<QueryResult>& r = batch.results[i];
      obs::Event ev("batch.query");
      ev.Uint("batch_id", batch.batch_id).Uint("slot", i).Bool("ok", r.ok());
      if (options.request_id != 0) ev.Uint("request_id", options.request_id);
      if (r.ok()) {
        uint64_t results = r->count ? *r->count
                           : r->ask ? static_cast<uint64_t>(*r->ask)
                                    : r->table.rows.size();
        ev.Uint("results", results)
            .Bool("timed_out", r->table.timed_out)
            .Num("ms", r->total_ms);
      } else {
        ev.Str("error", r.status().ToString());
      }
      log.Emit(std::move(ev));
    }
  });
  batch.wall_ms = timer.ElapsedMs();
  size_t failures = 0;
  for (const Result<QueryResult>& r : batch.results) {
    if (r.ok()) {
      batch.sum_query_ms += r->total_ms;
    } else {
      ++failures;
    }
  }
  batches->Add();
  batch_queries->Add(queries.size());
  batch_ms->Observe(batch.wall_ms);
  obs::PublishPoolMetrics(pool);
  if (log.active()) {
    util::ThreadPool::StatsSnapshot stats = pool.stats();
    obs::Event ev("batch.finish");
    ev.Uint("batch_id", batch.batch_id)
        .Uint("queries", queries.size())
        .Uint("failures", failures)
        .Num("wall_ms", batch.wall_ms)
        .Num("sum_query_ms", batch.sum_query_ms);
    if (options.request_id != 0) ev.Uint("request_id", options.request_id);
    log.Emit(std::move(ev));
    log.Emit(obs::Event("pool")
                 .Str("label", pool.label())
                 .Uint("threads", stats.num_threads)
                 .Uint("tasks_executed", stats.tasks_executed)
                 .Uint("peak_queue_depth", stats.peak_queue_depth));
  }
  return batch;
}

Result<std::string> QueryEngine::Explain(std::string_view sparql) const {
  ASSIGN_OR_RETURN(EncodedQuery q, ParseAndEncode(sparql, state_->graph.dict()));
  const sparql::ParsedQuery& query = q.query;
  const sparql::EncodedBgp& bgp = q.bgp;

  // Plans as Execute does on a plan-cache miss: under the feedback
  // corrections in force for the template, with the ASK/LIMIT pipelining
  // downgrade. With the plan cache enabled, EXPLAIN also reports the
  // query's template and whether it is currently cached.
  cache::PlanCache* pcache = state_->plan_cache.get();
  cache::CanonicalTemplate tmpl;
  std::shared_ptr<const cache::CachedPlan> centry;
  if (pcache != nullptr) {
    tmpl = cache::CanonicalizeTemplate(query, bgp, state_->gs.rdf_type_id);
    if (tmpl.cacheable) centry = pcache->Peek(tmpl.key);
  }
  const bool cache_eligible = pcache != nullptr && tmpl.cacheable;
  ASSIGN_OR_RETURN(FreshPlan fresh,
                   PlanUncached(query, bgp, cache_eligible ? &tmpl : nullptr,
                                /*life=*/nullptr));
  PipelineEarlyStop(query, &fresh.phys);
  const opt::Plan& plan = fresh.plan;
  const phys::PhysicalPlan& pplan = fresh.phys;
  const analysis::ShapeCheckResult& check = fresh.check;

  std::string out = "plan (" + (fresh.empty ? kStaticEmpty : plan.provider) +
                    " optimizer, query shape: " +
                    sparql::QueryShapeName(sparql::ClassifyShape(bgp)) + ")\n";
  if (pcache != nullptr) {
    if (!tmpl.cacheable) {
      out += "plan cache: bypass (" + tmpl.bypass_reason + ")\n";
    } else if (centry != nullptr) {
      out += "plan: cached (" + centry->short_id + ")\n";
    } else {
      out += "plan: not cached (template " + tmpl.ShortId() + ")\n";
    }
  }
  if (!plan.correction_factors.empty()) {
    out += "est: corrected (feedback factors:";
    char buf[48];
    for (size_t i = 0; i < plan.correction_factors.size(); ++i) {
      if (plan.correction_factors[i] == 1.0) continue;
      std::snprintf(buf, sizeof(buf), " tp%zu x%.3g", i,
                    plan.correction_factors[i]);
      out += buf;
    }
    out += ")\n";
  }
  if (!pplan.steps.empty()) {
    out += "join mode: " + std::string(phys::JoinModeName(pplan.mode)) +
           " -> " + pplan.Summary() + "\n";
  }
  if (state_->options.static_check) {
    out += "static check: " + std::string(analysis::SatisfiabilityName(
                                  check.verdict));
    if (fresh.empty) {
      out += " (" + check.rule + "; the query returns zero rows without "
             "planning or executing it)";
    } else if (check.provably_empty()) {
      out += " (" + check.rule + ")";
    } else if (!check.inferred.empty()) {
      out += " (" + std::to_string(check.inferred.size()) +
             " inferred class anchor(s) feed the estimates below)";
    }
    out += "\n";
  }
  for (size_t step = 0; step < plan.order.size(); ++step) {
    uint32_t tp = plan.order[step];
    out += "  " + std::to_string(step + 1) + ". " +
           query.patterns[tp].ToString();
    if (!plan.tp_estimates.empty()) {
      out += "   [tp card ~" +
             WithCommas(static_cast<uint64_t>(plan.tp_estimates[tp].card)) +
             ", step est ~" +
             WithCommas(static_cast<uint64_t>(plan.step_estimates[step])) + "]";
    }
    out += "\n";
    if (step < pplan.steps.size()) {
      const phys::PhysicalStep& ps = pplan.steps[step];
      out += "       op: " + std::string(phys::OpName(ps.op));
      if (ps.op == phys::OpKind::kMerge && !ps.left_presorted) {
        out += "(sort-left)";
      }
      if (step > 0 && ps.join_pos >= 0) {
        out += "  [build ~" +
               WithCommas(static_cast<uint64_t>(ps.est_left)) +
               ", probe ~" +
               WithCommas(static_cast<uint64_t>(ps.est_right)) + "]";
      }
      if (!ps.rationale.empty()) out += "; " + ps.rationale;
      out += "\n";
    }
  }
  if (!query.filters.empty() && !fresh.empty) {
    out += "  + " + std::to_string(query.filters.size()) +
           " filter(s), applied at the earliest step where bound\n";
  }
  if (plan.total_cost > 0) {
    out += "estimated cost: " +
           WithCommas(static_cast<uint64_t>(plan.total_cost)) + "\n";
  }
  analysis::Diagnostics lint =
      analysis::QueryLint(state_->gs, state_->graph.dict()).Lint(query, bgp);
  if (!lint.empty()) out += analysis::ToText(lint);
  if (!check.diagnostics.empty()) out += analysis::ToText(check.diagnostics);
  return out;
}

Result<AnalyzeResult> QueryEngine::ExplainAnalyze(std::string_view sparql) const {
  static obs::Counter* analyzes =
      obs::MetricsRegistry::Global().GetCounter("engine.explain_analyze");
  AnalyzeResult out;
  obs::QueryTrace& trace = out.trace;
  ASSIGN_OR_RETURN(QueryResult result,
                   ExecuteInternal(sparql, &trace, Caller{}));
  analyzes->Add();
  out.text = trace.ToTable();
  // Lint and checker findings ride along so .analyze shows why a query was
  // empty or needed a Cartesian product.
  ASSIGN_OR_RETURN(analysis::ShapeCheckResult check, StaticCheck(sparql));

  // Live soundness cross-check of a query Execute answered from its static
  // verdict alone: the textual-order INLJ oracle runs it with its FILTERs,
  // and any solution it finds is an analyzer bug (counted, never silently
  // ignored — and captured as a flight-recorder bundle when the recorder
  // is active).
  if (result.plan.provider == kStaticEmpty) {
    ASSIGN_OR_RETURN(sparql::ParsedQuery query, sparql::ParseQuery(sparql));
    query.limit.reset();
    if (query.count_aggregate) CountAsSelectAll(&query);
    ASSIGN_OR_RETURN(exec::ResultTable oracle,
                     exec::ExecuteSelect(state_->graph, query,
                                         state_->options.exec));
    const uint64_t found = oracle.bgp_matches;
    out.text += "soundness check: " + trace.static_verdict + " (" +
                check.rule + "); the textual-order INLJ oracle found " +
                WithCommas(found) + " solution(s)" +
                (oracle.timed_out ? " before it was stopped" : "") + "\n";
    if (found > 0) {
      static obs::Counter* violations =
          obs::MetricsRegistry::Global().GetCounter("static_check.violations");
      violations->Add();
      obs::EventLog& log = obs::EventLog::Global();
      if (log.active()) {
        log.Emit(obs::Event("static_check.violation")
                     .Str("rule", check.rule)
                     .Uint("results", found));
      }
      if (state_->sinks.flight != nullptr) {
        state_->sinks.flight->Record(
            "static-violation",
            BuildFlightBundle("static-violation", sparql,
                              obs::Outcome::kStaticEmpty, result.plan,
                              result.phys, trace.total_ms, found, &trace,
                              /*resources=*/nullptr, /*cache_template=*/"",
                              state_->plan_cache.get(), Caller{}));
      }
    }
  }
  if (!check.diagnostics.empty()) {
    out.text += analysis::ToText(check.diagnostics);
  }
  out.json = trace.ToJson();
  return out;
}

}  // namespace shapestats::engine
