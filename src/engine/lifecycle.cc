#include "engine/lifecycle.h"

#include <cmath>

#include "engine/query_engine.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/process_clock.h"

namespace shapestats::engine {

namespace {

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

Sinks Sinks::Resolve(obs::QueryRegistry* registry, obs::FlightRecorder* flight,
                     const cache::PlanCache* plan_cache) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  Sinks s;
  s.registry = registry;
  s.flight = flight;
  s.log = &obs::EventLog::Global();
  s.tracer = &obs::ChromeTracer::Global();
  s.plan_cache = plan_cache;
  s.queries = metrics.GetCounter("engine.queries");
  s.short_circuits = metrics.GetCounter("static_check.short_circuits");
  s.query_ms = metrics.GetHistogram("engine.query_ms");
  s.phys_plans = metrics.GetCounter("phys.plans");
  s.phys_merge_steps = metrics.GetCounter("phys.merge_steps");
  s.phys_inlj_steps = metrics.GetCounter("phys.inlj_steps");
  s.resources = metrics.GetHistogramGroup(
      {"exec.query_index_probes", "exec.query_rows_scanned",
       "exec.query_rows_materialized", "exec.query_peak_bytes",
       "exec.query_build_bytes"});
  return s;
}

QueryLifecycle::QueryLifecycle(const Sinks& sinks, std::string_view sparql,
                               obs::QueryTrace* trace, const Caller& caller)
    : sinks_(sinks),
      sparql_(sparql),
      trace_(trace),
      caller_(caller),
      span_("engine", "query"),
      start_(Clock::now()),
      timed_phases_(trace != nullptr || span_.active()),
      phase_start_(start_) {
  // The registry record carries the query's ResourceTracker. A traced
  // execution on a registry-less engine still gets a local tracker, so
  // EXPLAIN ANALYZE-style callers see resource totals.
  if (sinks_.registry != nullptr) {
    reg_ = sinks_.registry->Register(sparql, caller.request_id,
                                     caller.batch_id, caller.slot,
                                     obs::ToMonotonicUs(start_) / 1e3);
    tracker_ = reg_.tracker();
  } else if (trace_ != nullptr) {
    tracker_ = &local_tracker_.emplace();
  }
  if (trace_ != nullptr) trace_->query = std::string(sparql);
}

void QueryLifecycle::ClosePhase(Clock::time_point now) {
  const double ms = Ms(now - phase_start_);
  if (trace_ != nullptr) trace_->AddPhase(phase_, ms);
  if (span_.active()) {
    sinks_.tracer->AddComplete("engine", obs::PhaseName(phase_),
                               obs::ToMonotonicUs(phase_start_), ms * 1e3);
  }
  phase_start_ = now;
}

void QueryLifecycle::Enter(obs::Phase next) {
  if (timed_phases_) ClosePhase(Clock::now());
  phase_ = next;
  reg_.SetPhase(next);
}

void QueryLifecycle::Started(sparql::QueryShape shape, size_t num_patterns) {
  if (!sinks_.log->active()) return;
  sinks_.log->Emit(obs::Event("query.start")
                       .Str("query_shape", sparql::QueryShapeName(shape))
                       .Uint("patterns", num_patterns));
}

void QueryLifecycle::Template(uint64_t hash, const cache::CachedPlan* cached) {
  has_template_ = true;
  template_hash_ = hash;
  reg_.SetTemplate(hash);
  if (cached != nullptr && trace_ != nullptr) {
    trace_->plan_cached = true;
    trace_->cache_template = cached->short_id;
  }
}

void QueryLifecycle::Verdict(analysis::Satisfiability verdict,
                             const analysis::ShapeCheckResult* check) {
  if (trace_ != nullptr) {
    trace_->static_verdict = analysis::SatisfiabilityName(verdict);
  }
  if (check != nullptr && sinks_.log->active() &&
      (check->provably_empty() || !check->inferred.empty())) {
    sinks_.log->Emit(
        obs::Event("query.static")
            .Str("verdict", analysis::SatisfiabilityName(check->verdict))
            .Str("rule", check->rule)
            .Uint("findings", check->diagnostics.size())
            .Uint("inferred", check->inferred.size()));
  }
}

void QueryLifecycle::Planned(QueryResult* result, exec::ExecOptions* eopts) {
  const opt::Plan& plan = result->plan;
  result->plan_ms = Ms(Clock::now() - start_);
  if (trace_ != nullptr) {
    trace_->est_total_cost = plan.total_cost;
    for (double f : plan.correction_factors) {
      if (f != 1.0) trace_->est_corrected = true;
    }
    eopts->trace = &trace_->exec;
  }
  // Counted from the plan that runs (after the ASK/LIMIT downgrade, on
  // cache hits and misses alike).
  uint64_t merges = 0;
  uint64_t inljs = 0;
  for (const phys::PhysicalStep& step : result->phys.steps) {
    merges += step.op == phys::OpKind::kMerge;
    inljs += step.op == phys::OpKind::kInlj;
  }
  sinks_.phys_plans->Add();
  sinks_.phys_merge_steps->Add(merges);
  sinks_.phys_inlj_steps->Add(inljs);
  if (sinks_.log->active()) {
    obs::Event ev("query.plan");
    ev.Str("optimizer", plan.provider)
        .Num("est_cost", plan.total_cost)
        .Bool("cartesian", plan.has_cartesian);
    std::string order;
    for (uint32_t tp : plan.order) {
      if (!order.empty()) order += ",";
      order += std::to_string(tp);
    }
    ev.Str("order", order);
    sinks_.log->Emit(std::move(ev));
  }
  if (span_.active()) {
    span_.Arg("optimizer", plan.provider);
    span_.Arg("shape", sparql::QueryShapeName(result->shape));
  }
  reg_.SetStepsTotal(plan.order.size());
}

void QueryLifecycle::Close(QueryResult* result, obs::Outcome outcome,
                           uint64_t num_results) {
  end_ = Clock::now();
  if (timed_phases_) ClosePhase(end_);
  phase_ = obs::Phase::kDone;
  reg_.SetPhase(obs::Phase::kDone);
  result->total_ms = Ms(end_ - start_);
  const bool executed = outcome != obs::Outcome::kStaticEmpty;
  if (!executed) result->plan_ms = result->total_ms;
  // The final resource snapshot: the Prometheus distributions, the trace's
  // resources block and the registry's completed record read the same
  // numbers. Short-circuited queries did no execution work to report.
  if (tracker_ != nullptr && executed) {
    resources_ = tracker_->Snapshot();
    sinks_.resources->Observe(
        {static_cast<double>(resources_.index_probes),
         static_cast<double>(resources_.rows_scanned),
         static_cast<double>(resources_.rows_materialized),
         static_cast<double>(resources_.peak_bytes),
         static_cast<double>(resources_.build_bytes)});
  }
  if (trace_ != nullptr) {
    trace_->optimizer = result->plan.provider;
    trace_->query_shape = sparql::QueryShapeName(result->shape);
    trace_->num_results = num_results;
    trace_->timed_out = obs::IsTruncation(outcome);
    trace_->cancelled = outcome == obs::Outcome::kCancelled;
    trace_->total_ms = result->total_ms;
    if (tracker_ != nullptr && executed) {
      trace_->resources = resources_;
      trace_->has_resources = true;
    }
  }
}

void QueryLifecycle::Report(const QueryResult& result, obs::Outcome outcome,
                            uint64_t num_results) {
  sinks_.queries->Add();
  sinks_.query_ms->Observe(result.total_ms);
  if (outcome == obs::Outcome::kStaticEmpty) sinks_.short_circuits->Add();
  reg_.Complete(outcome, num_results, obs::ToMonotonicUs(end_) / 1e3);
  // Flight-recorder anomaly triggers: cancellation, latency over the slow
  // threshold, or a per-step q-error over the threshold (exact traced runs
  // only — untraced runs have no step annotations to judge, and early-
  // stopped or truncated runs have no q-errors).
  if (obs::FlightRecorder* fr = sinks_.flight; fr != nullptr) {
    const char* trigger = nullptr;
    if (outcome == obs::Outcome::kCancelled) {
      trigger = "cancelled";
    } else if (fr->slow_ms() >= 0 && result.total_ms >= fr->slow_ms()) {
      trigger = "slow";
    } else if (fr->max_q_error() > 0 && trace_ != nullptr) {
      for (const obs::StepTrace& s : trace_->steps) {
        if (!std::isnan(s.q_error) && s.q_error > fr->max_q_error()) {
          trigger = "qerror";
          break;
        }
      }
    }
    if (trigger != nullptr) {
      const bool has_resources =
          tracker_ != nullptr && outcome != obs::Outcome::kStaticEmpty;
      fr->Record(trigger,
                 BuildFlightBundle(
                     trigger, sparql_, outcome, result.plan, result.phys,
                     result.total_ms, num_results, trace_,
                     has_resources ? &resources_ : nullptr,
                     has_template_ ? obs::TemplateId(template_hash_) : "",
                     sinks_.plan_cache, caller_));
    }
  }
  if (sinks_.log->active()) {
    sinks_.log->Emit(obs::Event("query.finish")
                         .Str("optimizer", result.plan.provider)
                         .Str("query_shape", sparql::QueryShapeName(result.shape))
                         .Uint("results", num_results)
                         .Bool("timed_out", obs::IsTruncation(outcome))
                         .Str("outcome", obs::OutcomeName(outcome))
                         .Num("ms", result.total_ms));
  }
}

std::string BuildFlightBundle(const char* trigger, std::string_view sparql,
                              obs::Outcome outcome, const opt::Plan& plan,
                              const phys::PhysicalPlan& pplan, double total_ms,
                              uint64_t num_results, const obs::QueryTrace* trace,
                              const obs::ResourceSnapshot* resources,
                              const std::string& cache_template,
                              const cache::PlanCache* pcache,
                              const Caller& caller) {
  std::string out = "{\"trigger\":\"" + std::string(trigger) + "\"";
  out += ",\"outcome\":\"" + std::string(obs::OutcomeName(outcome)) + "\"";
  if (caller.request_id != 0) {
    out += ",\"request_id\":" + std::to_string(caller.request_id);
  }
  if (caller.batch_id != 0) {
    out += ",\"batch_id\":" + std::to_string(caller.batch_id) +
           ",\"slot\":" + std::to_string(caller.slot);
  }
  out += ",\"query\":\"" + obs::JsonEscape(std::string(sparql)) + "\"";
  out += ",\"total_ms\":" + obs::FormatNumber(total_ms);
  out += ",\"num_results\":" + std::to_string(num_results);
  out += ",\"plan\":{\"provider\":\"" + obs::JsonEscape(plan.provider) +
         "\",\"est_cost\":" + obs::FormatNumber(plan.total_cost) + ",\"order\":[";
  for (size_t i = 0; i < plan.order.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(plan.order[i]);
  }
  out += "]}";
  if (!pplan.steps.empty()) {
    out += ",\"phys\":{\"summary\":\"" + obs::JsonEscape(pplan.Summary()) +
           "\",\"steps\":[";
    for (size_t i = 0; i < pplan.steps.size(); ++i) {
      const phys::PhysicalStep& ps = pplan.steps[i];
      if (i) out += ",";
      out += "{\"op\":\"" + std::string(phys::OpName(ps.op)) +
             "\",\"est_build\":" + obs::FormatNumber(ps.est_left) +
             ",\"est_probe\":" + obs::FormatNumber(ps.est_right) + ",\"rationale\":\"" +
             obs::JsonEscape(ps.rationale) + "\"}";
    }
    out += "]}";
  }
  if (trace != nullptr) out += ",\"trace\":" + trace->ToJson();
  if (resources != nullptr) out += ",\"resources\":" + resources->ToJson();
  out += ",\"cache\":{";
  out += "\"template\":\"" + obs::JsonEscape(cache_template) + "\"";
  if (pcache != nullptr) {
    const cache::PlanCache::StatsSnapshot cs = pcache->stats();
    out += ",\"hits\":" + std::to_string(cs.hits) +
           ",\"misses\":" + std::to_string(cs.misses) +
           ",\"size\":" + std::to_string(cs.size) +
           ",\"corrections\":" + std::to_string(cs.corrections) +
           ",\"hit_rate\":" + obs::FormatNumber(cs.hit_rate);
  }
  if (!plan.correction_factors.empty()) {
    out += ",\"correction_factors\":[";
    for (size_t i = 0; i < plan.correction_factors.size(); ++i) {
      if (i) out += ",";
      out += obs::FormatNumber(plan.correction_factors[i]);
    }
    out += "]";
  }
  out += "}";
  out += ",\"build\":" + obs::BuildInfoJson();
  out += "}";
  return out;
}

}  // namespace shapestats::engine
