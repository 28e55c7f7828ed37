#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

namespace {

/// Resolves EngineOptions::plan_cache against SHAPESTATS_PLAN_CACHE.
bool PlanCacheEnabled(EngineOptions::PlanCacheMode mode) {
  switch (mode) {
    case EngineOptions::PlanCacheMode::kOn: return true;
    case EngineOptions::PlanCacheMode::kOff: return false;
    case EngineOptions::PlanCacheMode::kEnv: break;
  }
  const char* env = std::getenv("SHAPESTATS_PLAN_CACHE");
  if (env == nullptr || *env == '\0') return false;
  const std::string_view v(env);
  return v != "0" && v != "off" && v != "false" && v != "no";
}

/// Resolves EngineOptions::registry against SHAPESTATS_REGISTRY.
bool RegistryEnabled(EngineOptions::RegistryMode mode) {
  switch (mode) {
    case EngineOptions::RegistryMode::kOn: return true;
    case EngineOptions::RegistryMode::kOff: return false;
    case EngineOptions::RegistryMode::kEnv: break;
  }
  return obs::QueryRegistry::EnabledByEnv();
}

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
/// empty when every factor is 1. `canon` (optional) receives the factors
/// in canonical pattern order, empty likewise.
std::vector<double> InstanceCorrections(const cache::PlanCache& pcache,
                                        const cache::CanonicalTemplate& tmpl,
                                        size_t num_patterns,
                                        std::vector<double>* canon = nullptr) {
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
  if (canon != nullptr) *canon = std::move(factors);
  return instance;
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
  result->plan.provider = "static-empty";
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
  if (PlanCacheEnabled(options.plan_cache)) {
    st.plan_cache =
        std::make_unique<cache::PlanCache>(options.plan_cache_options);
  }
  st.sinks = Sinks::Resolve(
      RegistryEnabled(options.registry) ? &obs::QueryRegistry::Global()
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
    RETURN_NOT_OK(rdf::LoadNTriplesFile(path, &graph));
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
                                 const sparql::EncodedBgp& bgp,
                                 const opt::Plan& plan,
                                 const phys::PhysicalPlan* pplan,
                                 const std::vector<card::EstimateDetail>& details,
                                 const std::vector<uint64_t>& true_cards,
                                 obs::QueryTrace* trace, bool record) const {
  for (size_t k = 0; k < plan.order.size(); ++k) {
    const uint32_t tp = plan.order[k];
    obs::StepTrace step;
    step.step = static_cast<uint32_t>(k + 1);
    step.pattern = tp;
    step.pattern_text = query.patterns[tp].ToString();
    if (pplan != nullptr && k < pplan->steps.size()) {
      const phys::PhysicalStep& ps = pplan->steps[k];
      step.join_type = phys::OpName(ps.op);
      step.est_build = ps.est_left;
      step.est_probe = ps.est_right;
    } else if (k == 0) {
      step.join_type = "scan";
    } else {
      bool joins = false;
      for (size_t j = 0; j < k && !joins; ++j) {
        joins = sparql::Joinable(bgp.patterns[plan.order[j]],
                                 bgp.patterns[plan.order[k]]);
      }
      step.join_type = joins ? "join" : "product";
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
    step.q_error = state_->estimator != nullptr
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
    ASSIGN_OR_RETURN(empty, CheckAndPlan(query, bgp,
                                         cache_eligible ? &tmpl : nullptr,
                                         &life, &inferred_anchors, &result));
  }
  if (empty) {
    AnswerEmpty(query, bgp, &result);
    life.Finish(&result, obs::Outcome::kStaticEmpty, 0, [] {});
    return result;
  }

  exec::ExecOptions eopts = state_->options.exec;
  // ASK and LIMIT queries stay on the streaming depth-first executor (early
  // termination beats materializing), recorded as a per-step downgrade.
  const bool is_ask = query.is_ask;
  const bool is_count = query.count_aggregate;
  const bool has_limit = query.limit.has_value();
  if ((is_ask || has_limit || eopts.limit > 0) && result.phys.Materializes()) {
    phys::ForceInlj(&result.phys, "pipelined: ASK/LIMIT early termination");
  }
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
    query.count_aggregate = false;
    query.select_all = true;
    query.projection.clear();
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
    // counts are not true cardinalities: they get step annotations but
    // stay out of the accuracy ledger and the feedback loop.
    const std::vector<uint64_t>& truth = trace->exec.step_rows_produced;
    const bool exact = !is_ask && !has_limit &&
                       outcome == obs::Outcome::kOk && !truth.empty();
    FillStepTraces(query, bgp, result.plan, &result.phys, details, truth,
                   trace, exact);
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

Result<bool> QueryEngine::CheckAndPlan(
    const sparql::ParsedQuery& query, const sparql::EncodedBgp& bgp,
    const cache::CanonicalTemplate* tmpl, QueryLifecycle* life,
    std::unordered_map<sparql::VarId, rdf::TermId>* inferred_anchors,
    QueryResult* result) const {
  cache::PlanCache* pcache = state_->plan_cache.get();
  // Shape-aware static check: a provably-empty BGP is answered with zero
  // rows, skipping optimize + execute; a satisfiable one may still
  // contribute inferred class anchors to the estimator.
  analysis::ShapeCheckResult check;
  bool lint_errors = false;
  if (state_->options.static_check) {
    check = Checker().Check(query, bgp);
    life->Verdict(check.verdict, &check);
    if (check.provably_empty()) {
      // Degenerate queries (unbound projection / FILTER / ORDER BY
      // variables) must keep failing exactly as the executor would fail
      // them — only clean queries take the short-circuit.
      lint_errors = analysis::HasErrors(
          analysis::QueryLint(state_->gs, state_->graph.dict())
              .Lint(query, bgp));
      if (!lint_errors) {
        if (tmpl != nullptr) {
          // Repeated provably-empty templates short-circuit straight from
          // the cache, skipping even the checker.
          auto entry = std::make_shared<cache::CachedPlan>();
          entry->template_hash = tmpl->hash;
          entry->short_id = tmpl->ShortId();
          entry->num_patterns = static_cast<uint32_t>(bgp.patterns.size());
          entry->checked = true;
          entry->verdict = check.verdict;
          entry->rule = check.rule;
          entry->feedback_version = pcache->feedback().Version(tmpl->hash);
          pcache->Put(tmpl->key, std::move(entry));
        }
        return true;
      }
    }
    if (state_->options.infer_constraints && !check.inferred.empty()) {
      *inferred_anchors = check.InferredAnchors(state_->gs);
    }
    life->Enter(obs::Phase::kPlan);
  }

  // Feedback-learned correction factors for this template, mapped into
  // instance pattern numbering. The feedback version is read before the
  // factors so a concurrent publication can only make the entry look
  // stale (forcing a harmless re-plan), never fresh.
  std::vector<double> corrections_canon;
  std::vector<double> corrections;
  uint64_t feedback_version = 0;
  if (tmpl != nullptr) {
    feedback_version = pcache->feedback().Version(tmpl->hash);
    corrections = InstanceCorrections(*pcache, *tmpl, bgp.patterns.size(),
                                      &corrections_canon);
  }
  obs::QueryTrace* trace = life->trace();
  ASSIGN_OR_RETURN(
      result->plan,
      PlanQuery(bgp, trace != nullptr ? &trace->planner : nullptr,
                inferred_anchors, corrections.empty() ? nullptr : &corrections));
  ASSIGN_OR_RETURN(result->phys, PlanPhysicalFor(bgp, result->plan));

  if (tmpl != nullptr) {
    auto entry = std::make_shared<cache::CachedPlan>();
    entry->template_hash = tmpl->hash;
    entry->short_id = tmpl->ShortId();
    entry->num_patterns = static_cast<uint32_t>(bgp.patterns.size());
    entry->checked = state_->options.static_check;
    entry->verdict = check.verdict;
    entry->rule = check.rule;
    entry->lint_errors = lint_errors;
    if (state_->options.infer_constraints) {
      for (const auto& [var, cls] : *inferred_anchors) {
        entry->inferred.emplace_back(tmpl->var_instance_to_canon[var], cls);
      }
    }
    // The physical plan is cached before any ASK/LIMIT pipelining
    // downgrade, which is applied per instance.
    entry->plan = cache::PlanToCanonical(result->plan, *tmpl);
    entry->phys = cache::PhysToCanonical(result->phys, *tmpl);
    entry->corrections = std::move(corrections_canon);
    entry->feedback_version = feedback_version;
    pcache->Put(tmpl->key, std::move(entry));
  }
  return false;
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

  analysis::ShapeCheckResult check;
  std::unordered_map<sparql::VarId, rdf::TermId> inferred_anchors;
  if (state_->options.static_check) {
    check = Checker().Check(query, bgp);
    if (state_->options.infer_constraints) {
      inferred_anchors = check.InferredAnchors(state_->gs);
    }
  }
  // With the plan cache enabled, EXPLAIN reports the query's template,
  // whether it is currently cached, and any feedback corrections in force
  // — and plans under those corrections, so the output matches what
  // Execute would run.
  cache::PlanCache* pcache = state_->plan_cache.get();
  cache::CanonicalTemplate tmpl;
  std::shared_ptr<const cache::CachedPlan> centry;
  std::vector<double> corrections;
  if (pcache != nullptr) {
    tmpl = cache::CanonicalizeTemplate(query, bgp, state_->gs.rdf_type_id);
    if (tmpl.cacheable) {
      centry = pcache->Peek(tmpl.key);
      corrections = InstanceCorrections(*pcache, tmpl, bgp.patterns.size());
    }
  }
  ASSIGN_OR_RETURN(opt::Plan plan,
                   PlanQuery(bgp, nullptr, &inferred_anchors,
                             corrections.empty() ? nullptr : &corrections));
  ASSIGN_OR_RETURN(phys::PhysicalPlan pplan, PlanPhysicalFor(bgp, plan));

  std::string out = "plan (" + plan.provider + " optimizer, query shape: " +
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
  if (!corrections.empty()) {
    out += "est: corrected (feedback factors:";
    char buf[48];
    for (size_t i = 0; i < corrections.size(); ++i) {
      if (corrections[i] == 1.0) continue;
      std::snprintf(buf, sizeof(buf), " tp%zu x%.3g", i, corrections[i]);
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
    if (check.provably_empty()) {
      out += " (" + check.rule + "; the query returns zero rows without "
             "executing this plan)";
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
  if (!query.filters.empty()) {
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
  trace.query = std::string(sparql);

  Timer total;
  Timer phase;
  auto close_phase = [&](obs::Phase done) {
    trace.AddPhase(done, phase.ElapsedMs());
    phase.Reset();
  };
  sparql::BgpEncoder& encoder = ThreadScratch().encoder;
  ASSIGN_OR_RETURN(sparql::ParsedQuery query,
                   sparql::ParseQuery(sparql, &encoder));
  close_phase(obs::Phase::kParse);
  const sparql::EncodedBgp bgp = encoder.Finish(state_->graph.dict());
  close_phase(obs::Phase::kEncode);

  // EXPLAIN ANALYZE executes in full even for provably-empty verdicts — the
  // profiling run doubles as a live soundness check of the static analyzer.
  analysis::ShapeCheckResult check;
  std::unordered_map<sparql::VarId, rdf::TermId> inferred_anchors;
  if (state_->options.static_check) {
    check = Checker().Check(query, bgp);
    trace.static_verdict = analysis::SatisfiabilityName(check.verdict);
    if (state_->options.infer_constraints) {
      inferred_anchors = check.InferredAnchors(state_->gs);
    }
    close_phase(obs::Phase::kStaticCheck);
  }

  // Apply any feedback corrections in force for this template so the
  // profiled plan matches what Execute would run (no cache lookup/insert:
  // the profiling run always plans fresh).
  std::vector<double> corrections;
  if (state_->plan_cache != nullptr) {
    cache::CanonicalTemplate tmpl =
        cache::CanonicalizeTemplate(query, bgp, state_->gs.rdf_type_id);
    if (tmpl.cacheable) {
      corrections = InstanceCorrections(*state_->plan_cache, tmpl,
                                        bgp.patterns.size());
      trace.est_corrected = !corrections.empty();
    }
  }
  ASSIGN_OR_RETURN(opt::Plan plan,
                   PlanQuery(bgp, &trace.planner, &inferred_anchors,
                             corrections.empty() ? nullptr : &corrections));
  ASSIGN_OR_RETURN(phys::PhysicalPlan pplan, PlanPhysicalFor(bgp, plan));
  // The profiling run is full (no early termination), but an options-level
  // LIMIT still needs the streaming executor's pushdown.
  if (state_->options.exec.limit > 0 && pplan.Materializes()) {
    phys::ForceInlj(&pplan, "pipelined: LIMIT early termination");
  }
  close_phase(obs::Phase::kPlan);
  trace.optimizer = plan.provider;
  trace.query_shape = sparql::QueryShapeName(sparql::ClassifyShape(bgp));
  trace.est_total_cost = plan.total_cost;

  // Per-pattern estimate provenance (which statistics source / Table-1
  // formula produced each TP estimate), for the step annotations.
  std::vector<card::EstimateDetail> details;
  if (state_->estimator != nullptr) {
    details = state_->estimator->EstimateAllDetailed(bgp, &inferred_anchors);
  }
  close_phase(obs::Phase::kEstimate);

  // Execute on the profiling executor: true per-step cardinalities (the
  // paper's TZ Card ground truth) plus probe/scan counters. A local
  // resource tracker feeds the trace's resources block (EXPLAIN ANALYZE
  // always reports resource totals, registry or not).
  obs::ResourceTracker analyze_tracker;
  exec::ExecOptions eopts = state_->options.exec;
  eopts.trace = &trace.exec;
  eopts.resources = &analyze_tracker;
  exec::ExecResult run;
  if (pplan.Materializes()) {
    ASSIGN_OR_RETURN(
        run, phys::ExecuteBgpPhysical(state_->graph, bgp, pplan, eopts));
  } else {
    ASSIGN_OR_RETURN(
        run, exec::ExecuteBgp(state_->graph, bgp, plan.order, eopts));
  }
  close_phase(obs::Phase::kExecute);
  trace.num_results = run.num_results;
  trace.timed_out = run.timed_out;
  trace.cancelled = run.cancelled;
  trace.resources = analyze_tracker.Snapshot();
  trace.has_resources = true;
  FillStepTraces(query, bgp, plan, &pplan, details, run.step_cards, &trace,
                 /*record=*/!run.timed_out);
  trace.total_ms = total.ElapsedMs();

  // Live soundness cross-check: a provably-empty verdict that observed any
  // result is an analyzer bug (counted, never silently ignored — and
  // captured as a flight-recorder bundle when the recorder is active).
  if (check.provably_empty() && run.num_results > 0) {
    static obs::Counter* violations =
        obs::MetricsRegistry::Global().GetCounter("static_check.violations");
    violations->Add();
    obs::EventLog& log = obs::EventLog::Global();
    if (log.active()) {
      log.Emit(obs::Event("static_check.violation")
                   .Str("rule", check.rule)
                   .Uint("results", run.num_results));
    }
    if (state_->sinks.flight != nullptr) {
      state_->sinks.flight->Record(
          "static-violation",
          BuildFlightBundle("static-violation", sparql, obs::Outcome::kOk,
                            plan, pplan, trace.total_ms, run.num_results,
                            &trace, &trace.resources, /*cache_template=*/"",
                            state_->plan_cache.get(), Caller{}));
    }
  }

  analyzes->Add();
  out.text = trace.ToTable();
  // Lint and checker findings ride along so .analyze shows why a query was
  // empty or needed a Cartesian product.
  analysis::Diagnostics lint =
      analysis::QueryLint(state_->gs, state_->graph.dict()).Lint(query, bgp);
  if (!lint.empty()) out.text += analysis::ToText(lint);
  if (!check.diagnostics.empty()) {
    out.text += analysis::ToText(check.diagnostics);
  }
  out.json = trace.ToJson();
  return out;
}

}  // namespace shapestats::engine
