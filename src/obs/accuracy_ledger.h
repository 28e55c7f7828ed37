// Workload-level q-error accounting: aggregates per-join-step q-errors
// (obs::StepTrace) across many queries, keyed by (optimizer, query shape,
// statistics source, join type), and renders percentile tables — the
// workload evidence of the paper's Figures 4c/4d and Table 2, computed
// over whatever workload actually ran instead of a one-shot benchmark.
// The engine records into its ledger on every traced execution; the
// `.accuracy` shell command renders it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace.h"
#include "util/thread_annotations.h"

namespace shapestats::obs {

/// Aggregation key for one q-error population.
struct AccuracyKey {
  std::string optimizer;    // plan provider label ("SS", "GS", ...)
  std::string query_shape;  // star | path | snowflake | complex
  std::string source;       // statistics source ("shape", "global", ...)
  /// Physical operator of the step: scan | inlj | merge | product
  /// (phys::OpName), or the legacy "join" for textual plans executed
  /// without physical annotations.
  std::string join_type;

  bool operator<(const AccuracyKey& o) const {
    return std::tie(optimizer, query_shape, source, join_type) <
           std::tie(o.optimizer, o.query_shape, o.source, o.join_type);
  }
  bool operator==(const AccuracyKey& o) const {
    return std::tie(optimizer, query_shape, source, join_type) ==
           std::tie(o.optimizer, o.query_shape, o.source, o.join_type);
  }
};

/// Summary of one q-error population. Percentiles are exact (computed over
/// the retained samples with linear interpolation between order
/// statistics), not bucket approximations.
struct AccuracySummary {
  uint64_t steps = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Thread-safe q-error aggregator.
class AccuracyLedger {
 public:
  /// Adds every step of `trace` that carries a finite q-error, keyed by
  /// the trace's optimizer/shape and the step's source/join type.
  void Record(const QueryTrace& trace);
  /// Adds one sample directly.
  void RecordStep(const AccuracyKey& key, double q_error);

  uint64_t num_queries() const;
  uint64_t num_steps() const;

  struct Row {
    AccuracyKey key;
    AccuracySummary summary;
  };
  /// Per-key rows sorted by key, followed by one rollup row per optimizer
  /// (query_shape/source/join_type = "*") aggregating all of its samples.
  std::vector<Row> Snapshot() const;

  /// Exact percentile (p in [0,100]) of one key's samples; 0 when absent.
  double Percentile(const AccuracyKey& key, double p) const;

  /// Aligned table rendering (one row per Snapshot entry).
  std::string ToTable() const;
  /// [{"optimizer":..,"query_shape":..,"source":..,"join_type":..,
  ///   "steps":..,"mean":..,"p50":..,"p90":..,"p95":..,"p99":..,"max":..}]
  std::string ToJson() const;

  void Reset();

 private:
  mutable util::Mutex mu_;
  std::map<AccuracyKey, std::vector<double>> samples_ SHAPESTATS_GUARDED_BY(mu_);
  uint64_t queries_ SHAPESTATS_GUARDED_BY(mu_) = 0;
  uint64_t steps_ SHAPESTATS_GUARDED_BY(mu_) = 0;
};

/// Exact percentile of a sample vector (sorted in place): linear
/// interpolation between order statistics, p in [0,100]. Returns 0 on an
/// empty vector. Exposed for tests and the ledger's internals.
double ExactPercentile(std::vector<double>& samples, double p);

}  // namespace shapestats::obs
