#include "exec/work_meter.h"

#include "obs/metrics.h"

namespace shapestats::exec {

WorkMeter::WorkMeter(const ExecOptions& options, size_t num_steps)
    : trace_(options.trace),
      resources_(options.resources),
      timeout_ms_(options.timeout_ms),
      max_rows_(options.max_intermediate_rows),
      num_steps_(static_cast<uint32_t>(num_steps)),
      armed_(options.timeout_ms > 0 || options.resources != nullptr) {
  if (trace_ != nullptr) {
    trace_->step_probes.assign(num_steps, 0);
    trace_->step_rows_scanned.assign(num_steps, 0);
    trace_->step_rows_produced.assign(num_steps, 0);
    trace_->total_probes = 0;
    trace_->total_rows_scanned = 0;
  }
}

void WorkMeter::Publish(size_t step) const {
  resources_->Publish(probes_, scanned_, produced_, materialized_,
                      static_cast<uint32_t>(step));
}

bool WorkMeter::TickSlow(size_t step) {
  ticks_ = 0;
  if (resources_ != nullptr) {
    Publish(step);
    if (resources_->cancel_requested()) {
      resources_->NoteCancelObserved();
      timed_out_ = true;
      cancelled_ = true;
      return true;
    }
  }
  if (timeout_ms_ > 0 && timer_.ElapsedMs() > timeout_ms_) {
    timed_out_ = true;
    return true;
  }
  return false;
}

void WorkMeter::Finish(RunKind kind) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* const runs[] = {reg.GetCounter("exec.bgp_runs"),
                                       reg.GetCounter("exec.select_runs"),
                                       reg.GetCounter("exec.phys_runs")};
  static obs::Counter* probes = reg.GetCounter("exec.index_probes");
  static obs::Counter* scanned = reg.GetCounter("exec.rows_scanned");
  static obs::Counter* timeouts = reg.GetCounter("exec.timeouts");
  if (trace_ != nullptr) {
    trace_->total_probes = probes_;
    trace_->total_rows_scanned = scanned_;
  }
  if (resources_ != nullptr) Publish(num_steps_);
  runs[static_cast<int>(kind)]->Add();
  probes->Add(probes_);
  scanned->Add(scanned_);
  if (timed_out_) timeouts->Add();
}

Status CheckJoinOrder(const rdf::Graph& graph, size_t num_patterns,
                      const std::vector<uint32_t>& order) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  if (order.size() != num_patterns) {
    return Status::InvalidArgument("order size does not match pattern count");
  }
  std::vector<bool> seen(num_patterns, false);
  for (uint32_t i : order) {
    if (i >= num_patterns || seen[i]) {
      return Status::InvalidArgument("order is not a permutation of patterns");
    }
    seen[i] = true;
  }
  return Status::OK();
}

}  // namespace shapestats::exec
