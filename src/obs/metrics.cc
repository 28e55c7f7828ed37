#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <cstdio>
#include <map>

#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace shapestats::obs {

size_t Histogram::BucketIndex(double value) {
  if (!(value >= 1)) return 0;  // negatives / NaN land in bucket 0
  // floor(log2(value)) read straight from the IEEE-754 exponent: exact at
  // every bucket boundary, and cheap enough for per-query observations.
  static_assert(std::numeric_limits<double>::is_iec559);
  const uint64_t exp_bits = (std::bit_cast<uint64_t>(value) >> 52) & 0x7ff;
  const size_t idx = static_cast<size_t>(exp_bits - 1023) + 1;  // inf: 1025
  return std::min(idx, kNumBuckets - 1);
}

double Histogram::BucketLow(size_t i) {
  if (i == 0) return 0;
  return std::ldexp(1.0, static_cast<int>(i) - 1);  // 2^(i-1)
}

void Histogram::Snapshot::Add(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[BucketIndex(value)];
}

void Histogram::Observe(double value) {
  util::MutexLock lock(mu_);
  data_.Add(value);
}

void Histogram::Reset() {
  util::MutexLock lock(mu_);
  data_ = Snapshot{};
}

Histogram::Snapshot Histogram::Snap() const {
  util::MutexLock lock(mu_);
  return data_;
}

void HistogramGroup::Observe(std::initializer_list<double> values) {
  util::MutexLock lock(mu_);
  size_t i = 0;
  for (double v : values) {
    if (i == data_.size()) break;
    data_[i++].Add(v);
  }
}

void HistogramGroup::Reset() {
  util::MutexLock lock(mu_);
  for (Histogram::Snapshot& d : data_) d = Histogram::Snapshot{};
}

Histogram::Snapshot HistogramGroup::Snap(size_t member) const {
  util::MutexLock lock(mu_);
  return data_[member];
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the target sample (1-based, midpoint convention) among `count`
  // observations, then linear interpolation inside the covering bucket.
  double target = p / 100.0 * static_cast<double>(count);
  if (target < 1) target = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(cum + buckets[i]) >= target) {
      double lo = BucketLow(i);
      // The overflow bucket has no power-of-two upper edge; the observed
      // max bounds every bucket anyway.
      double hi = (i + 1 < kNumBuckets) ? BucketLow(i + 1) : max;
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi < lo) hi = lo;
      double frac = (target - static_cast<double>(cum)) /
                    static_cast<double>(buckets[i]);
      return lo + frac * (hi - lo);
    }
    cum += buckets[i];
  }
  return max;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  util::MutexLock lock(mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return c.get();
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return counters_.back().second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  util::MutexLock lock(mu_);
  for (auto& [n, g] : gauges_) {
    if (n == name) return g.get();
  }
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return gauges_.back().second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  util::MutexLock lock(mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return h.get();
  }
  histograms_.emplace_back(name, std::make_unique<Histogram>());
  return histograms_.back().second.get();
}

HistogramGroup* MetricsRegistry::GetHistogramGroup(
    const std::vector<std::string>& names) {
  util::MutexLock lock(mu_);
  for (auto& [n, g] : histogram_groups_) {
    if (n == names) return g.get();
  }
  histogram_groups_.emplace_back(names,
                                 std::make_unique<HistogramGroup>(names.size()));
  return histogram_groups_.back().second.get();
}

MetricsSnapshot MetricsRegistry::Snap() const {
  MetricsSnapshot snap;
  {
    util::MutexLock lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [n, c] : counters_) {
      snap.counters.push_back({n, c->value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [n, g] : gauges_) {
      snap.gauges.push_back({n, g->value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [n, h] : histograms_) {
      snap.histograms.push_back({n, h->Snap()});
    }
    for (const auto& [names, g] : histogram_groups_) {
      for (size_t i = 0; i < names.size(); ++i) {
        snap.histograms.push_back({names[i], g->Snap(i)});
      }
    }
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::ResetAll() {
  util::MutexLock lock(mu_);
  for (auto& [n, c] : counters_) c->Reset();
  for (auto& [n, g] : gauges_) g->Reset();
  for (auto& [n, h] : histograms_) h->Reset();
  for (auto& [n, g] : histogram_groups_) g->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":[";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":\"" + JsonEscape(counters[i].name) +
           "\",\"value\":" + std::to_string(counters[i].value) + "}";
  }
  out += "],\"gauges\":[";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":\"" + JsonEscape(gauges[i].name) +
           "\",\"value\":" + std::to_string(gauges[i].value) + "}";
  }
  out += "],\"histograms\":[";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    if (i) out += ",";
    out += "{\"name\":\"" + JsonEscape(h.name) +
           "\",\"count\":" + std::to_string(h.snap.count) +
           ",\"sum\":" + FormatNumber(h.snap.sum) +
           ",\"min\":" + FormatNumber(h.snap.min) +
           ",\"max\":" + FormatNumber(h.snap.max) +
           ",\"p50\":" + FormatNumber(h.snap.Percentile(50)) +
           ",\"p95\":" + FormatNumber(h.snap.Percentile(95)) +
           ",\"p99\":" + FormatNumber(h.snap.Percentile(99)) + ",\"buckets\":[";
    bool first = true;
    for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      if (h.snap.buckets[b] == 0) continue;
      if (!first) out += ",";
      first = false;
      out += "{\"lo\":" + FormatNumber(Histogram::BucketLow(b)) +
             ",\"count\":" + std::to_string(h.snap.buckets[b]) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  if (!counters.empty()) {
    TablePrinter printer({"counter", "value"});
    for (const auto& c : counters) {
      printer.AddRow({c.name, WithCommas(c.value)});
    }
    out += printer.Render();
  }
  if (!gauges.empty()) {
    TablePrinter printer({"gauge", "value"});
    for (const auto& g : gauges) {
      printer.AddRow({g.name, std::to_string(g.value)});
    }
    out += printer.Render();
  }
  if (!histograms.empty()) {
    TablePrinter printer(
        {"histogram", "count", "mean", "p50", "p95", "p99", "min", "max"});
    for (const auto& h : histograms) {
      printer.AddRow({h.name, WithCommas(h.snap.count), FormatNumber(h.snap.Mean()),
                      FormatNumber(h.snap.Percentile(50)),
                      FormatNumber(h.snap.Percentile(95)),
                      FormatNumber(h.snap.Percentile(99)), FormatNumber(h.snap.min),
                      FormatNumber(h.snap.max)});
    }
    out += printer.Render();
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  if (out.empty()) out = "_";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const auto& c : counters) {
    std::string name = PrometheusName(c.name);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : gauges) {
    std::string name = PrometheusName(g.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : histograms) {
    std::string name = PrometheusName(h.name);
    out += "# TYPE " + name + " histogram\n";
    // Cumulative counts over the log-scale buckets, up to the highest
    // non-empty bucket; `le` is each bucket's exclusive upper edge (the next
    // bucket's lower bound). The overflow bucket folds into +Inf.
    size_t top = 0;
    for (size_t b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
      if (h.snap.buckets[b] != 0) top = b + 1;
    }
    uint64_t cum = 0;
    for (size_t b = 0; b < top; ++b) {
      cum += h.snap.buckets[b];
      out += name + "_bucket{le=\"" + FormatNumber(Histogram::BucketLow(b + 1)) +
             "\"} " + std::to_string(cum) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.snap.count) + "\n";
    out += name + "_sum " + FormatNumber(h.snap.sum) + "\n";
    out += name + "_count " + std::to_string(h.snap.count) + "\n";
  }
  return out;
}

void PublishPoolMetrics(const util::ThreadPool& pool) {
  util::ThreadPool::StatsSnapshot snap = pool.stats();
  MetricsRegistry& reg = MetricsRegistry::Global();
  // The shared pool keeps the legacy unprefixed metric names; custom pools
  // publish under their label so several pools stay distinguishable.
  std::string prefix = (&pool == &util::ThreadPool::Shared())
                           ? "pool."
                           : "pool." + pool.label() + ".";
  // Pool totals are monotonic, so the registry counters mirror them by
  // adding the delta since the last publish. The per-label bookkeeping is
  // mutex-guarded so concurrent publishers cannot double-count a delta.
  struct Last {
    uint64_t tasks = 0;
    uint64_t peak = 0;
    bool threads_published = false;
  };
  static util::Mutex mu;
  static std::map<std::string, Last>* last_by_label
      SHAPESTATS_GUARDED_BY(mu) = new std::map<std::string, Last>();
  util::MutexLock lock(mu);
  Last& last = (*last_by_label)[prefix];
  if (snap.tasks_executed > last.tasks) {
    reg.GetCounter(prefix + "tasks_executed")
        ->Add(snap.tasks_executed - last.tasks);
    last.tasks = snap.tasks_executed;
  }
  if (snap.peak_queue_depth > last.peak) {
    reg.GetCounter(prefix + "peak_queue_depth")
        ->Add(snap.peak_queue_depth - last.peak);
    last.peak = snap.peak_queue_depth;
  }
  if (!last.threads_published) {
    reg.GetCounter(prefix + "threads")->Add(snap.num_threads);
    last.threads_published = true;
  }
}

void PublishSharedPoolMetrics() { PublishPoolMetrics(util::ThreadPool::Shared()); }

}  // namespace shapestats::obs
