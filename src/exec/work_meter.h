// Per-run work accounting shared by every executor: the depth-first
// evaluator behind ExecuteBgp / ExecuteSelect and the materializing
// physical executor (src/phys/). One WorkMeter lives for one run. It counts
// index probes, scanned triples, produced and materialized rows, keeps the
// optional per-step ExecTrace, enforces ExecOptions::max_intermediate_rows,
// and runs the amortized work tick: every kTimeoutCheckInterval probes and
// scans it reads the clock for ExecOptions::timeout_ms, publishes running
// totals to the query's ResourceTracker and serves cooperative
// cancellation. Work advances on probes and scans, not produced rows, so
// nested loops that produce nothing still observe the tick.
//
// The counting methods are inline and branch-light: they run once per
// scanned triple in the executors' inner loops.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/executor.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "rdf/graph.h"
#include "util/status.h"
#include "util/timer.h"

namespace shapestats::exec {

/// Work units (index probes + scanned triples) between two tick checks.
inline constexpr uint32_t kTimeoutCheckInterval = 1024;

/// The executor a run belongs to; selects its exec.*_runs counter.
enum class RunKind { kBgp, kSelect, kPhys };

class WorkMeter {
 public:
  /// Starts the run clock and resets `options.trace` (when set) to
  /// `num_steps` zeroed steps.
  WorkMeter(const ExecOptions& options, size_t num_steps);

  /// Counts one index probe at `step`. True when the run must stop.
  bool Probe(size_t step) {
    ++probes_;
    if (trace_ != nullptr) ++trace_->step_probes[step];
    return Tick(step);
  }

  /// Counts one scanned triple at `step`. True when the run must stop.
  bool Scan(size_t step) {
    ++scanned_;
    if (trace_ != nullptr) ++trace_->step_rows_scanned[step];
    return Tick(step);
  }

  /// Counts one produced binding at `step` (post-bind, pre-filter) and
  /// applies the intermediate-row budget. True when the run must stop.
  bool Produce(size_t step) {
    ++produced_;
    if (trace_ != nullptr) ++trace_->step_rows_produced[step];
    if (max_rows_ != 0 && produced_ > max_rows_) {
      timed_out_ = true;
      row_capped_ = true;
    }
    return timed_out_;
  }

  /// Counts one row appended to a materialized binding table.
  void Materialize() { ++materialized_; }

  bool timed_out() const { return timed_out_; }
  /// A served ResourceTracker cancellation (always also timed_out()).
  bool cancelled() const { return cancelled_; }
  /// The intermediate-row budget stopped the run (always also timed_out()).
  bool row_capped() const { return row_capped_; }
  double ElapsedMs() const { return timer_.ElapsedMs(); }

  /// Ends the run: copies the totals into the trace, publishes them to the
  /// tracker and flushes the exec.* counters. Call once.
  void Finish(RunKind kind);

 private:
  // The amortized tick behind Probe and Scan. True when the run must stop:
  // the timeout expired or a cancellation was served.
  bool Tick(size_t step) {
    if (!armed_ || ++ticks_ < kTimeoutCheckInterval) return false;
    return TickSlow(step);
  }
  bool TickSlow(size_t step);
  void Publish(size_t step) const;

  obs::ExecTrace* trace_;
  obs::ResourceTracker* resources_;
  const double timeout_ms_;
  const uint64_t max_rows_;
  const uint32_t num_steps_;
  const bool armed_;  // a timeout or a tracker needs the tick
  uint32_t ticks_ = 0;
  uint64_t probes_ = 0;
  uint64_t scanned_ = 0;
  uint64_t produced_ = 0;
  uint64_t materialized_ = 0;
  bool timed_out_ = false;
  bool cancelled_ = false;
  bool row_capped_ = false;
  Timer timer_;
};

/// Checks the preconditions every executor shares: a finalized graph and
/// a join `order` that is a permutation of the `num_patterns` patterns.
Status CheckJoinOrder(const rdf::Graph& graph, size_t num_patterns,
                      const std::vector<uint32_t>& order);

}  // namespace shapestats::exec
