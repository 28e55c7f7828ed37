// Traced replay for the shapestats benchmark: re-runs a query through the
// public function of each layer, in the order QueryEngine::Execute calls
// them (parse -> encode -> classify -> plan-cache lookup -> static check ->
// join ordering with cardinality estimation -> physical planning ->
// execution), recording a span around every call. Spans live in memory
// and are written out as a Chrome / Perfetto trace when the run ends.
//
// The replay owns its own estimator and plan cache, built from the
// engine's graph and statistics with the engine's options, so a replay
// that sees the same query sequence as the engine makes the same cache
// decisions and plans. What it leaves out — registry records, events,
// histograms, plan verification — is the engine's per-query lifecycle
// cost, measured as engine latency minus the replay's layer spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/plan_cache.h"
#include "card/estimator.h"
#include "check.h"
#include "engine/query_engine.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "opt/plan.h"
#include "phys/physical_plan.h"
#include "sparql/encoded_bgp.h"
#include "sparql/query.h"

namespace shapestats::shapebench {

/// One recorded span. `parent` indexes the tracer's span list (-1 for a
/// root); `query` is the id of the query (or set-up round) it belongs to.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t query;
};

/// In-memory span recorder with per-layer self-time totals.
class Tracer {
 public:
  Tracer();

  int32_t Begin(const char* name);
  void End(int32_t id);
  void set_query(uint32_t query) { query_ = query; }

  /// Adds the spans recorded since `first` to the per-name totals, and
  /// returns the summed duration of the direct children of span `first`
  /// (the layer calls under one query root), in microseconds. Spans beyond
  /// the export cap are dropped after folding.
  double Fold(size_t first);

  size_t size() const { return spans_.size(); }
  /// Self time (span minus its children) per span name, in microseconds.
  const std::map<std::string, double>& self_us() const { return self_us_; }
  uint64_t total_spans() const { return total_spans_; }

  /// Writes the kept spans in the Chrome trace-event format (complete "X"
  /// events; args carry the query id and parent span).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr size_t kExportCap = 50000;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t query_ = 0;
  std::map<std::string, double> self_us_;
  uint64_t total_spans_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Everything one replayed query produced.
struct ReplayResult {
  sparql::ParsedQuery query;
  sparql::EncodedBgp bgp;
  Answer answer;
  opt::Plan plan;
  phys::PhysicalPlan phys;  // as executed (after any ASK/LIMIT downgrade)
  bool provably_empty = false;
  bool cache_hit = false;
  obs::PlannerTrace planner;  // filled when the plan was computed
  obs::ResourceSnapshot resources;
};

class Replay {
 public:
  explicit Replay(const engine::QueryEngine& engine);

  Result<ReplayResult> Run(const std::string& text, Tracer& tracer);

  /// Runs the execution step of `r` as the engine would (physical plan
  /// `phys`), returning the answer.
  Result<Answer> Execute(const ReplayResult& r, const phys::PhysicalPlan& phys,
                         obs::ResourceTracker* tracker) const;

 private:
  const engine::QueryEngine& engine_;
  std::unique_ptr<card::CardinalityEstimator> estimator_;
  std::unique_ptr<cache::PlanCache> cache_;
};

}  // namespace shapestats::shapebench
