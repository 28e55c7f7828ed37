// Chrome trace-event exporter: collects "complete" (`ph:"X"`) spans on
// per-thread timelines and renders the JSON object format understood by
// chrome://tracing and Perfetto (ui.perfetto.dev). Two span sources are
// wired in by default once tracing is enabled:
//
//  * engine spans — QueryEngine emits one span per query (with one
//    sub-span per obs::Phase), one per batch, and one per preprocessing
//    stage;
//  * pool spans — a util::ThreadPool task-timing hook records every pool
//    task / ParallelFor chunk on the worker thread that ran it, which makes
//    pool utilization and stragglers directly visible on the timeline.
//
// Setting the SHAPESTATS_CHROME_TRACE environment variable to a file path
// enables the global tracer at startup, installs the pool hook, and writes
// the trace file at process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace shapestats::obs {

/// Thread-safe collector of Chrome trace "complete" events. Timestamps are
/// microseconds on the obs::MonotonicUs timebase.
class ChromeTracer {
 public:
  /// Hard cap on buffered events; further AddComplete calls are counted in
  /// dropped() instead of growing the buffer.
  static constexpr size_t kMaxEvents = 1u << 20;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Records one span on the calling thread's timeline. `args` values are
  /// plain strings (rendered as JSON strings). No-op when disabled.
  void AddComplete(const char* category, std::string name, double ts_us,
                   double dur_us,
                   std::vector<std::pair<std::string, std::string>> args = {});

  size_t NumEvents() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  void Clear();

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} with thread_name
  /// metadata records for every timeline that appears.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

  /// Process-wide tracer. On first use, if SHAPESTATS_CHROME_TRACE names a
  /// file, enables tracing, installs the pool task hook, and registers an
  /// atexit writer for that file.
  static ChromeTracer& Global();

 private:
  struct Ev {
    const char* category;
    std::string name;
    double ts_us;
    double dur_us;
    uint32_t tid;
    std::vector<std::pair<std::string, std::string>> args;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  mutable util::Mutex mu_;
  std::vector<Ev> events_ SHAPESTATS_GUARDED_BY(mu_);
};

/// RAII span against the global tracer: captures the start time at
/// construction and records a complete event on destruction. Cost when
/// tracing is disabled: one relaxed load.
class TraceSpan {
 public:
  TraceSpan(const char* category, std::string name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an argument shown in the trace viewer's detail pane.
  void Arg(std::string key, std::string value);
  bool active() const { return active_; }

 private:
  bool active_;
  const char* category_;
  std::string name_;
  double start_us_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Installs the util::ThreadPool task-timing hook that records pool task /
/// chunk spans into the global tracer. Idempotent.
void InstallPoolTraceHook();

}  // namespace shapestats::obs
