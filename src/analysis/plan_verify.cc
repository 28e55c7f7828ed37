#include "analysis/plan_verify.h"

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sparql/query_graph.h"
#include "util/string_util.h"

namespace shapestats::analysis {

namespace {

std::string StepSubject(size_t step) { return "step " + std::to_string(step + 1); }

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0; }

}  // namespace

Diagnostics PlanVerifier::Verify(const opt::Plan& plan,
                                 const sparql::EncodedBgp& bgp) const {
  static obs::Counter* verifications =
      obs::MetricsRegistry::Global().GetCounter("analysis.plan_verifications");
  static obs::Counter* violations =
      obs::MetricsRegistry::Global().GetCounter("analysis.plan_violations");
  verifications->Add();

  Diagnostics out;
  const size_t n = bgp.patterns.size();

  if (plan.order.size() != n) {
    out.push_back({Severity::kError, "plan.order-size", "plan",
                   "order has " + std::to_string(plan.order.size()) +
                       " steps for a BGP of " + std::to_string(n) +
                       " patterns"});
  }

  // Permutation check over whatever order was supplied.
  std::vector<bool> seen(n, false);
  for (size_t k = 0; k < plan.order.size(); ++k) {
    uint32_t tp = plan.order[k];
    if (tp >= n) {
      out.push_back({Severity::kError, "plan.order-not-permutation",
                     StepSubject(k),
                     "pattern index " + std::to_string(tp) +
                         " is out of range (BGP has " + std::to_string(n) +
                         " patterns)"});
      continue;
    }
    if (seen[tp]) {
      out.push_back({Severity::kError, "plan.order-not-permutation",
                     StepSubject(k),
                     "pattern index " + std::to_string(tp) +
                         " appears more than once"});
    }
    seen[tp] = true;
  }

  if (plan.step_estimates.size() != plan.order.size() ||
      (!plan.tp_estimates.empty() && plan.tp_estimates.size() != n)) {
    out.push_back({Severity::kError, "plan.sizes-mismatch", "plan",
                   "step_estimates has " +
                       std::to_string(plan.step_estimates.size()) +
                       " entries and tp_estimates " +
                       std::to_string(plan.tp_estimates.size()) +
                       " for an order of " +
                       std::to_string(plan.order.size()) + " steps"});
  }

  // Every non-first step must share a variable with some already-joined
  // pattern, or the plan must admit it contains a Cartesian product.
  if (!plan.has_cartesian) {
    for (size_t k = 1; k < plan.order.size(); ++k) {
      uint32_t b = plan.order[k];
      if (b >= n) continue;  // already reported above
      bool joins = false;
      for (size_t j = 0; j < k && !joins; ++j) {
        uint32_t a = plan.order[j];
        if (a < n) joins = sparql::Joinable(bgp.patterns[a], bgp.patterns[b]);
      }
      if (!joins) {
        out.push_back({Severity::kError, "plan.disconnected-step",
                       StepSubject(k),
                       "pattern " + std::to_string(b) +
                           " shares no variable with the join prefix and the "
                           "plan is not flagged has_cartesian"});
      }
    }
  }

  for (size_t k = 0; k < plan.step_estimates.size(); ++k) {
    if (!FiniteNonNegative(plan.step_estimates[k])) {
      out.push_back({Severity::kError, "plan.nonfinite-estimate",
                     StepSubject(k),
                     "step estimate " + CompactDouble(plan.step_estimates[k]) +
                         " is not finite and non-negative"});
    }
  }
  for (size_t i = 0; i < plan.tp_estimates.size(); ++i) {
    const card::TpEstimate& e = plan.tp_estimates[i];
    if (!FiniteNonNegative(e.card) || !FiniteNonNegative(e.dsc) ||
        !FiniteNonNegative(e.doc)) {
      out.push_back({Severity::kError, "plan.nonfinite-estimate",
                     "pattern " + std::to_string(i),
                     "tp estimate (card " + CompactDouble(e.card) + ", dsc " +
                         CompactDouble(e.dsc) + ", doc " +
                         CompactDouble(e.doc) +
                         ") is not finite and non-negative"});
    }
  }

  // Problem 2: the plan cost is the sum of the intermediate cardinalities.
  double sum = 0;
  for (double s : plan.step_estimates) sum += s;
  double tol = 1e-6 * std::max(1.0, std::max(std::fabs(sum), std::fabs(plan.total_cost)));
  if (!(std::fabs(plan.total_cost - sum) <= tol)) {  // NaN-safe: !(x<=tol)
    out.push_back({Severity::kError, "plan.cost-mismatch", "plan",
                   "total_cost " + CompactDouble(plan.total_cost) +
                       " differs from the sum of step estimates " +
                       CompactDouble(sum)});
  }

  if (!out.empty()) violations->Add(out.size());
  return out;
}

Diagnostics PlanVerifier::Verify(const phys::PhysicalPlan& pplan,
                                 const opt::Plan& plan,
                                 const sparql::EncodedBgp& bgp) const {
  static obs::Counter* verifications =
      obs::MetricsRegistry::Global().GetCounter("analysis.phys_verifications");
  static obs::Counter* violations =
      obs::MetricsRegistry::Global().GetCounter("analysis.phys_violations");
  verifications->Add();

  Diagnostics out;
  const size_t n = bgp.patterns.size();

  if (pplan.steps.size() != plan.order.size()) {
    out.push_back({Severity::kError, "phys.steps-size", "plan",
                   "physical plan has " + std::to_string(pplan.steps.size()) +
                       " steps for a join order of " +
                       std::to_string(plan.order.size())});
  }

  std::vector<bool> bound(bgp.NumVars(), false);
  for (size_t k = 0; k < pplan.steps.size(); ++k) {
    const phys::PhysicalStep& st = pplan.steps[k];
    if (k < plan.order.size() && st.pattern != plan.order[k]) {
      out.push_back({Severity::kError, "phys.pattern-mismatch",
                     StepSubject(k),
                     "physical step executes pattern " +
                         std::to_string(st.pattern) +
                         " but the join order has pattern " +
                         std::to_string(plan.order[k])});
    }
    if (st.pattern >= n) continue;  // the logical overload reports this
    const sparql::EncodedPattern& tp = bgp.patterns[st.pattern];

    if (k == 0 && st.op != phys::OpKind::kScan) {
      out.push_back({Severity::kError, "phys.first-step", StepSubject(k),
                     std::string("first step must be an index scan, got ") +
                         phys::OpName(st.op)});
    }

    const bool is_join =
        st.op == phys::OpKind::kInlj || st.op == phys::OpKind::kMerge;
    if (k > 0 && is_join && st.join_pos >= 0 && st.join_pos <= 2) {
      const sparql::EncodedTerm& jt =
          st.join_pos == 0 ? tp.s : (st.join_pos == 1 ? tp.p : tp.o);
      if (!jt.is_var() || jt.id != st.join_var || st.join_var >= bound.size() ||
          !bound[st.join_var]) {
        out.push_back({Severity::kError, "phys.join-var-unbound",
                       StepSubject(k),
                       "join component " + std::to_string(st.join_pos) +
                           " does not hold variable " +
                           std::to_string(st.join_var) +
                           " bound by the join prefix"});
      }
    } else if (k > 0 && is_join) {
      out.push_back({Severity::kError, "phys.join-var-unbound", StepSubject(k),
                     std::string(phys::OpName(st.op)) +
                         " step has no join component"});
    }

    if (st.op == phys::OpKind::kMerge &&
        !phys::MergeRunAvailable(tp, st.join_pos)) {
      out.push_back({Severity::kError, "phys.merge-order-unavailable",
                     StepSubject(k),
                     "no index run sorted by component " +
                         std::to_string(st.join_pos) +
                         " exists for this pattern's constants"});
    }

    if (k > 0) {
      bool joins = false;
      for (const sparql::EncodedTerm* e : {&tp.s, &tp.p, &tp.o}) {
        if (e->is_var() && e->id < bound.size() && bound[e->id]) joins = true;
      }
      if (st.op == phys::OpKind::kProduct && joins) {
        out.push_back({Severity::kError, "phys.product-mislabel",
                       StepSubject(k),
                       "step labeled product but shares a variable with the "
                       "join prefix"});
      } else if (is_join && !joins) {
        out.push_back({Severity::kError, "phys.product-mislabel",
                       StepSubject(k),
                       std::string("step labeled ") + phys::OpName(st.op) +
                           " but shares no variable with the join prefix"});
      }
    }

    if (!FiniteNonNegative(st.est_left) || !FiniteNonNegative(st.est_right) ||
        !FiniteNonNegative(st.est_out)) {
      out.push_back({Severity::kError, "phys.nonfinite-estimate",
                     StepSubject(k),
                     "operator estimates (left " + CompactDouble(st.est_left) +
                         ", right " + CompactDouble(st.est_right) + ", out " +
                         CompactDouble(st.est_out) +
                         ") are not finite and non-negative"});
    }

    for (const sparql::EncodedTerm* e : {&tp.s, &tp.p, &tp.o}) {
      if (e->is_var() && e->id < bound.size()) bound[e->id] = true;
    }
  }

  if (!out.empty()) violations->Add(out.size());
  return out;
}

}  // namespace shapestats::analysis
