#include "replay.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "analysis/query_lint.h"
#include "analysis/shape_check.h"
#include "card/provider.h"
#include "exec/select_executor.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "phys/planner.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"

namespace shapestats::shapebench {

namespace {

int64_t NowNs(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

/// Provider decorator recording a card.estimate span around every
/// whole-BGP estimation the join orderer requests. Pairwise join
/// estimates are pure arithmetic and only counted (PlannerTrace).
class TimedProvider : public card::PlannerStatsProvider {
 public:
  TimedProvider(const card::PlannerStatsProvider& base, Tracer& tracer)
      : base_(base), tracer_(tracer) {}

  std::string name() const override { return base_.name(); }
  std::vector<card::TpEstimate> EstimateAll(
      const sparql::EncodedBgp& bgp) const override {
    ScopedSpan span(tracer_, "card.estimate");
    return base_.EstimateAll(bgp);
  }
  std::vector<card::TpEstimate> SeedEstimates(
      const sparql::EncodedBgp& bgp) const override {
    ScopedSpan span(tracer_, "card.estimate");
    return base_.SeedEstimates(bgp);
  }
  double EstimateJoin(const sparql::EncodedPattern& a,
                      const card::TpEstimate& ea,
                      const sparql::EncodedPattern& b,
                      const card::TpEstimate& eb) const override {
    return base_.EstimateJoin(a, ea, b, eb);
  }

 private:
  const card::PlannerStatsProvider& base_;
  Tracer& tracer_;
};

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int32_t Tracer::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(origin_), 0, parent, query_});
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs(origin_);
  open_.pop_back();
}

double Tracer::Fold(size_t first) {
  const size_t n = spans_.size() - first;
  std::vector<int64_t> child_ns(n, 0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int32_t>(first)) {
      child_ns[static_cast<size_t>(s.parent) - first] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_us_[s.name] += (s.end_ns - s.start_ns - child_ns[i - first]) / 1e3;
  }
  total_spans_ += n;
  const double children_us = n > 0 ? child_ns[0] / 1e3 : 0;
  if (spans_.size() > kExportCap) spans_.resize(first);
  return children_us;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%u,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i ? "," : "", s.name, s.start_ns / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, s.query, i, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Replay::Replay(const engine::QueryEngine& engine) : engine_(engine) {
  const bool shapes = engine.shapes().NumNodeShapes() > 0;
  estimator_ = std::make_unique<card::CardinalityEstimator>(
      engine.global_stats(), shapes ? &engine.shapes() : nullptr,
      engine.graph().dict(),
      shapes ? card::StatsMode::kShape : card::StatsMode::kGlobal);
  if (engine.plan_cache() != nullptr) {
    cache_ = std::make_unique<cache::PlanCache>(
        engine.options().plan_cache_options);
  }
}

Result<ReplayResult> Replay::Run(const std::string& text, Tracer& tracer) {
  const engine::EngineOptions& opts = engine_.options();
  const rdf::Graph& graph = engine_.graph();
  const stats::GlobalStats& gs = engine_.global_stats();
  ReplayResult r;
  {
    ScopedSpan span(tracer, "sparql.parse");
    ASSIGN_OR_RETURN(r.query, sparql::ParseQuery(text));
  }
  {
    ScopedSpan span(tracer, "sparql.encode");
    r.bgp = sparql::EncodeBgp(r.query, graph.dict());
  }
  {
    ScopedSpan span(tracer, "sparql.classify");
    (void)sparql::ClassifyShape(r.bgp);
  }

  cache::CanonicalTemplate tmpl;
  std::shared_ptr<const cache::CachedPlan> cached;
  bool eligible = false;
  if (cache_ != nullptr) {
    {
      ScopedSpan span(tracer, "cache.canonicalize");
      tmpl = cache::CanonicalizeTemplate(r.query, r.bgp, gs.rdf_type_id);
    }
    ScopedSpan span(tracer, "cache.lookup");
    eligible = tmpl.cacheable;
    if (eligible) {
      cached = cache_->Get(tmpl.key);
    } else {
      cache_->NoteBypass();
    }
  }
  r.cache_hit = cached != nullptr;

  std::unordered_map<sparql::VarId, rdf::TermId> inferred;
  if (cached != nullptr) {
    if (cached->checked) {
      if (cached->verdict != analysis::Satisfiability::kSatisfiable &&
          !cached->lint_errors) {
        r.provably_empty = true;
      } else if (opts.infer_constraints) {
        for (const auto& [canon_var, cls] : cached->inferred) {
          if (canon_var < tmpl.var_canon_to_instance.size()) {
            inferred[tmpl.var_canon_to_instance[canon_var]] = cls;
          }
        }
      }
    }
    if (!r.provably_empty) {
      r.plan = cache::PlanToInstance(cached->plan, tmpl);
      r.phys = cache::PhysToInstance(cached->phys, tmpl);
    }
  } else {
    analysis::ShapeCheckResult check;
    bool lint_errors = false;
    if (opts.static_check) {
      {
        ScopedSpan span(tracer, "analysis.check");
        analysis::ShapeChecker checker(
            gs,
            engine_.shapes().NumNodeShapes() > 0 ? &engine_.shapes() : nullptr,
            graph.dict());
        check = checker.Check(r.query, r.bgp);
      }
      if (check.provably_empty()) {
        ScopedSpan span(tracer, "analysis.lint");
        lint_errors = analysis::HasErrors(
            analysis::QueryLint(gs, graph.dict()).Lint(r.query, r.bgp));
        r.provably_empty = !lint_errors;
      }
      if (!r.provably_empty && opts.infer_constraints &&
          !check.inferred.empty()) {
        inferred = check.InferredAnchors(gs);
      }
    }
    if (!r.provably_empty) {
      {
        ScopedSpan span(tracer, "opt.plan");
        std::optional<card::AnchoredEstimator> anchored;
        const card::PlannerStatsProvider* provider = estimator_.get();
        if (!inferred.empty()) {
          anchored.emplace(*estimator_, inferred);
          provider = &*anchored;
        }
        TimedProvider timed(*provider, tracer);
        r.plan = opt::PlanJoinOrder(r.bgp, timed, &r.planner);
      }
      ScopedSpan span(tracer, "phys.plan");
      phys::PlannerOptions popts;
      popts.mode = opts.join_mode;
      r.phys = phys::PlanPhysical(r.bgp, r.plan, graph, popts);
    }
    if (eligible) {
      ScopedSpan span(tracer, "cache.store");
      auto entry = std::make_shared<cache::CachedPlan>();
      entry->template_hash = tmpl.hash;
      entry->short_id = tmpl.ShortId();
      entry->num_patterns = static_cast<uint32_t>(r.bgp.patterns.size());
      entry->checked = opts.static_check;
      entry->verdict = check.verdict;
      entry->rule = check.rule;
      entry->lint_errors = lint_errors;
      entry->feedback_version = cache_->feedback().Version(tmpl.hash);
      if (!r.provably_empty) {
        if (opts.infer_constraints) {
          for (const auto& [var, cls] : inferred) {
            entry->inferred.emplace_back(tmpl.var_instance_to_canon[var], cls);
          }
        }
        entry->plan = cache::PlanToCanonical(r.plan, tmpl);
        entry->phys = cache::PhysToCanonical(r.phys, tmpl);
      }
      cache_->Put(tmpl.key, std::move(entry));
    }
  }

  if (r.provably_empty) {
    r.answer.kind = r.query.is_ask           ? Answer::Kind::kAsk
                    : r.query.count_aggregate ? Answer::Kind::kCount
                                              : Answer::Kind::kRows;
    if (r.query.select_all) {
      r.answer.vars = r.bgp.var_names;
    } else if (!r.query.count_aggregate) {
      for (const sparql::Variable& v : r.query.projection) {
        r.answer.vars.push_back(v.name);
      }
    }
    return r;
  }
  const bool pipelined = r.query.is_ask || r.query.limit.has_value() ||
                         opts.exec.limit > 0;
  if (pipelined && r.phys.Materializes()) {
    phys::ForceInlj(&r.phys, "pipelined: ASK/LIMIT early termination");
  }
  obs::ResourceTracker tracker;
  {
    ScopedSpan span(tracer, "exec.run");
    ASSIGN_OR_RETURN(r.answer, Execute(r, r.phys, &tracker));
  }
  r.resources = tracker.Snapshot();
  return r;
}

Result<Answer> Replay::Execute(const ReplayResult& r,
                               const phys::PhysicalPlan& phys,
                               obs::ResourceTracker* tracker) const {
  const rdf::Graph& graph = engine_.graph();
  const sparql::ParsedQuery& q = r.query;
  exec::ExecOptions eopts = engine_.options().exec;
  eopts.resources = tracker;
  Answer a;
  if (q.is_ask) {
    sparql::ParsedQuery probe = q;
    probe.limit = 1;
    ASSIGN_OR_RETURN(exec::ResultTable t,
                     exec::ExecuteSelect(graph, probe, r.bgp, r.plan.order,
                                         eopts));
    a.kind = Answer::Kind::kAsk;
    a.ask = !t.rows.empty();
    a.truncated = t.timed_out;
    return a;
  }
  sparql::ParsedQuery counting;
  const sparql::ParsedQuery* run = &q;
  if (q.count_aggregate) {
    counting = q;
    counting.count_aggregate = false;
    counting.select_all = true;
    counting.projection.clear();
    run = &counting;
  }
  exec::ResultTable t;
  if (phys.Materializes()) {
    ASSIGN_OR_RETURN(t, phys::ExecuteSelectPhysical(graph, *run, r.bgp, phys,
                                                    eopts));
  } else {
    ASSIGN_OR_RETURN(t, exec::ExecuteSelect(graph, *run, r.bgp, r.plan.order,
                                            eopts));
  }
  a.truncated = t.timed_out;
  if (q.count_aggregate) {
    a.kind = Answer::Kind::kCount;
    a.count = t.bgp_matches;
    return a;
  }
  a.vars = std::move(t.var_names);
  a.rows = std::move(t.rows);
  return a;
}

}  // namespace shapestats::shapebench
