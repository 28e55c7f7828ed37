#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace shapestats::obs {

namespace {

std::string FmtMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string FmtQError(double q) {
  if (std::isnan(q)) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", q);
  return buf;
}

std::string FmtCard(double card) {
  return WithCommas(static_cast<uint64_t>(std::llround(std::max(0.0, card))));
}

}  // namespace

double QError(double estimate, double truth) {
  if (std::isnan(estimate)) return std::numeric_limits<double>::quiet_NaN();
  double e = std::max(1.0, estimate);
  double c = std::max(1.0, truth);
  return std::max(e / c, c / e);
}

double QueryTrace::PhaseMs(const std::string& name) const {
  for (const PhaseSpan& p : phases) {
    if (p.name == name) return p.ms;
  }
  return -1;
}

std::string QueryTrace::ToJson() const {
  std::string out = "{";
  out += "\"query\":\"" + JsonEscape(query) + "\"";
  out += ",\"optimizer\":\"" + JsonEscape(optimizer) + "\"";
  out += ",\"query_shape\":\"" + JsonEscape(query_shape) + "\"";
  if (!static_verdict.empty()) {
    out += ",\"static_verdict\":\"" + JsonEscape(static_verdict) + "\"";
  }
  if (plan_cached) {
    out += ",\"plan_cached\":true,\"cache_template\":\"" +
           JsonEscape(cache_template) + "\"";
  }
  if (est_corrected) out += ",\"est_corrected\":true";
  out += ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":\"" + JsonEscape(phases[i].name) +
           "\",\"ms\":" + FmtMs(phases[i].ms) + "}";
  }
  out += "],\"planner\":{\"candidates_considered\":" +
         std::to_string(planner.candidates_considered) +
         ",\"join_estimates\":" + std::to_string(planner.join_estimates) +
         ",\"cartesian_steps\":" + std::to_string(planner.cartesian_steps) + "}";
  out += ",\"steps\":[";
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepTrace& s = steps[i];
    if (i) out += ",";
    out += "{\"step\":" + std::to_string(s.step) +
           ",\"pattern\":" + std::to_string(s.pattern) +
           ",\"pattern_text\":\"" + JsonEscape(s.pattern_text) + "\"" +
           ",\"source\":\"" + JsonEscape(s.source) + "\"" +
           ",\"formula\":\"" + JsonEscape(s.formula) + "\"" +
           ",\"join_type\":\"" + JsonEscape(s.join_type) + "\"" +
           ",\"est_build\":" + FormatNumber(s.est_build) +
           ",\"est_probe\":" + FormatNumber(s.est_probe) +
           ",\"tp_est\":" + FormatNumber(s.tp_est) +
           ",\"est_card\":" + FormatNumber(s.est_card) +
           ",\"true_card\":" + std::to_string(s.true_card) + ",\"q_error\":" +
           (std::isnan(s.q_error) ? "null" : FormatNumber(s.q_error)) +
           ",\"rows_scanned\":" + std::to_string(s.rows_scanned) +
           ",\"index_probes\":" + std::to_string(s.index_probes) + "}";
  }
  out += "],\"totals\":{\"num_results\":" + std::to_string(num_results) +
         ",\"est_cost\":" + FormatNumber(est_total_cost) +
         ",\"true_cost\":" + std::to_string(true_total_cost) +
         ",\"rows_scanned\":" + std::to_string(exec.total_rows_scanned) +
         ",\"index_probes\":" + std::to_string(exec.total_probes) +
         ",\"timed_out\":" + (timed_out ? "true" : "false");
  if (cancelled) out += ",\"cancelled\":true";
  out += ",\"total_ms\":" + FmtMs(total_ms) + "}";
  if (has_resources) out += ",\"resources\":" + resources.ToJson();
  out += "}";
  return out;
}

std::string QueryTrace::ToTable() const {
  std::string out = "query plan analysis (" + optimizer + " optimizer";
  if (!query_shape.empty()) out += ", query shape: " + query_shape;
  if (!static_verdict.empty() && static_verdict != "satisfiable") {
    out += ", static verdict: " + static_verdict;
  }
  out += ")\n";
  if (plan_cached) {
    out += "plan: cached (" + cache_template + ")\n";
  }
  if (est_corrected) {
    out += "est: corrected (feedback-learned adjustment factors applied)\n";
  }

  if (!steps.empty()) {
    TablePrinter printer({"step", "op", "triple pattern", "stats", "est card",
                          "true card", "q-error", "rows scanned", "probes"});
    for (const StepTrace& s : steps) {
      std::string stats = s.source;
      if (!s.formula.empty()) stats += ":" + s.formula;
      printer.AddRow({std::to_string(s.step), s.join_type, s.pattern_text,
                      stats, FmtCard(s.est_card), WithCommas(s.true_card),
                      FmtQError(s.q_error), WithCommas(s.rows_scanned),
                      WithCommas(s.index_probes)});
    }
    out += printer.Render();
  }

  if (!phases.empty()) {
    out += "phases:";
    for (const PhaseSpan& p : phases) {
      out += " " + p.name + " " + FmtMs(p.ms) + "ms";
    }
    out += "\n";
  }

  out += "totals: " + WithCommas(num_results) + " results, est cost " +
         FmtCard(est_total_cost) + ", true cost " + WithCommas(true_total_cost) +
         ", " + WithCommas(exec.total_rows_scanned) + " rows scanned, " +
         WithCommas(exec.total_probes) + " index probes";
  if (planner.cartesian_steps > 0) {
    out += ", " + std::to_string(planner.cartesian_steps) + " cartesian step(s)";
  }
  if (cancelled) {
    out += " [CANCELLED]";
  } else if (timed_out) {
    out += " [TIMED OUT]";
  }
  out += " (" + FmtMs(total_ms) + " ms)\n";
  if (has_resources) out += "resources: " + resources.ToText() + "\n";
  return out;
}

}  // namespace shapestats::obs
