// Lightweight, zero-dependency metrics layer: named monotonic counters and
// log-scale histograms collected in a thread-safe registry. Hot paths hold a
// `Counter*` (one relaxed atomic add per event); registries are snapshotted
// for reporting and export as JSON or an aligned text table. A process-wide
// registry (`MetricsRegistry::Global()`) aggregates across all engines so
// shells, tools and benchmarks can observe the whole process.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace shapestats::util {
class ThreadPool;
}  // namespace shapestats::util

namespace shapestats::obs {

/// Monotonic event counter. Lock-free; safe to share across threads.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, in-flight requests). Lock-free;
/// safe to share across threads. Unlike Counter it can go down, so
/// Prometheus exposition types it as a gauge.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Sub(int64_t delta = 1) { value_.fetch_sub(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-scale (power-of-two bucket) histogram of non-negative samples.
/// Bucket 0 covers [0, 1); bucket k (1 <= k < 63) covers [2^(k-1), 2^k);
/// bucket 63 is the overflow bucket. Observe() takes a mutex — intended for
/// per-query observations (latencies, cardinalities), not per-row events.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Observe(double value);
  void Reset();

  /// Index of the bucket a value falls into.
  static size_t BucketIndex(double value);
  /// Inclusive lower bound of bucket `i` (0 for bucket 0).
  static double BucketLow(size_t i);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0;
    double min = 0;  // 0 when count == 0
    double max = 0;
    std::array<uint64_t, kNumBuckets> buckets{};
    double Mean() const { return count ? sum / static_cast<double>(count) : 0; }
    /// Records one sample.
    void Add(double value);
    /// Estimated percentile (p in [0,100]) by linear interpolation within
    /// the log-scale bucket holding the target rank, clamped to the
    /// observed [min, max]. Exact for the extremes; within one power of
    /// two otherwise. Returns 0 when the histogram is empty.
    double Percentile(double p) const;
  };
  Snapshot Snap() const;

 private:
  mutable util::Mutex mu_;
  Snapshot data_ SHAPESTATS_GUARDED_BY(mu_);
};

/// Histograms that always take one sample each at the same time, recorded
/// under one lock: a per-query set of distributions costs one lock, not
/// one per histogram. Exported as separate histograms, one per name.
class HistogramGroup {
 public:
  explicit HistogramGroup(size_t size) : data_(size) {}

  /// Records values[i] into member i; one value per member.
  void Observe(std::initializer_list<double> values);
  void Reset();
  Histogram::Snapshot Snap(size_t member) const;
  size_t size() const { return data_.size(); }

 private:
  mutable util::Mutex mu_;
  std::vector<Histogram::Snapshot> data_ SHAPESTATS_GUARDED_BY(mu_);
};

/// Point-in-time view of a whole registry.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    Histogram::Snapshot snap;
  };
  std::vector<CounterEntry> counters;      // sorted by name
  std::vector<GaugeEntry> gauges;          // sorted by name
  std::vector<HistogramEntry> histograms;  // sorted by name

  /// Machine-readable export:
  /// {"counters":[{"name":..,"value":..}],
  ///  "gauges":[{"name":..,"value":..}],
  ///  "histograms":[{"name":..,"count":..,"sum":..,"min":..,"max":..,
  ///                 "buckets":[{"lo":..,"count":..}]}]}
  std::string ToJson() const;
  /// Human-readable aligned table (counters, gauges, histogram summaries).
  std::string ToText() const;
  /// Prometheus text exposition format (version 0.0.4): counters as
  /// `# TYPE <name> counter`, gauges as gauges, histograms as cumulative
  /// `<name>_bucket{le="..."}` series plus `_sum`/`_count`. Metric names are
  /// sanitized via PrometheusName (dots become underscores).
  std::string ToPrometheus() const;
};

/// Sanitizes a metric name for Prometheus exposition: characters outside
/// [a-zA-Z0-9_:] map to '_', and a leading digit gets a '_' prefix.
std::string PrometheusName(const std::string& name);

/// Thread-safe name -> instrument registry. Returned pointers are stable for
/// the registry's lifetime, so callers resolve once and increment lock-free.
class MetricsRegistry {
 public:
  /// Finds or creates the named counter / gauge / histogram.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  /// Finds or creates the group of histograms named `names` (the same
  /// list, in the same order, finds the same group). The names must not
  /// also be used for GetHistogram.
  HistogramGroup* GetHistogramGroup(const std::vector<std::string>& names);

  /// Convenience one-shot forms (one map lookup per call).
  void Add(const std::string& name, uint64_t delta = 1) { GetCounter(name)->Add(delta); }
  void Observe(const std::string& name, double value) {
    GetHistogram(name)->Observe(value);
  }

  MetricsSnapshot Snap() const;
  std::string ToJson() const { return Snap().ToJson(); }
  std::string ToText() const { return Snap().ToText(); }
  std::string ToPrometheus() const { return Snap().ToPrometheus(); }

  /// Zeroes every instrument (names stay registered; pointers stay valid).
  void ResetAll();

  /// Process-wide registry used by the engine's built-in instrumentation.
  static MetricsRegistry& Global();

 private:
  mutable util::Mutex mu_;
  // Parallel name/instrument vectors kept sorted on snapshot, not insert:
  // entries are append-only so raw pointers remain stable.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_
      SHAPESTATS_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_
      SHAPESTATS_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_
      SHAPESTATS_GUARDED_BY(mu_);
  std::vector<std::pair<std::vector<std::string>,
                        std::unique_ptr<HistogramGroup>>>
      histogram_groups_ SHAPESTATS_GUARDED_BY(mu_);
};

/// Escapes a string for embedding in JSON output (quotes not included).
std::string JsonEscape(std::string_view s);

/// Copies the shared util::ThreadPool's activity counters into the global
/// registry: `pool.tasks_executed` and `pool.peak_queue_depth` (published as
/// deltas so the registry counters track the pool's monotonic totals) plus
/// `pool.threads`. Called by the engine after preprocessing and after every
/// batch, so `.metrics` always reflects recent pool activity.
void PublishSharedPoolMetrics();

/// Publishes one pool's activity counters into the global registry. The
/// shared pool keeps its legacy unprefixed names (`pool.tasks_executed`,
/// ...); every other pool publishes under `pool.<label>.*` so custom
/// engine::EngineOptions::pool instances are observable side by side.
/// Deltas are tracked per label, so repeated publishes stay monotonic.
void PublishPoolMetrics(const util::ThreadPool& pool);

}  // namespace shapestats::obs
