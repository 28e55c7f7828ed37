#include "phys/planner.h"

#include <optional>
#include <string>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace shapestats::phys {

using sparql::EncodedPattern;
using sparql::VarId;

namespace {

// The variable at component `pos` of `tp`, if that component is a variable.
std::optional<VarId> VarAt(const EncodedPattern& tp, int pos) {
  const sparql::EncodedTerm& t = pos == 0 ? tp.s : (pos == 1 ? tp.p : tp.o);
  if (t.is_var()) return t.id;
  return std::nullopt;
}

// The index run MergeRightSpan (phys_executor.cc) reads for a merge on
// component `pos` of `tp`, named for the rationale.
std::string MergeRunName(const EncodedPattern& tp, int pos) {
  const char* index;
  if (pos == 0) {
    index = tp.p.is_bound() ? (tp.o.is_bound() ? "POS" : "PSO")
                            : (tp.o.is_bound() ? "OSP" : "SPO");
  } else {
    index = tp.p.is_bound() ? (tp.s.is_bound() ? "SPO" : "POS") : "OSP";
  }
  return std::string(index) + " run sorted by " +
         (pos == 0 ? "subject" : "object");
}

}  // namespace

PhysicalPlan PlanPhysical(const sparql::EncodedBgp& bgp, const opt::Plan& plan,
                          const rdf::Graph& /*graph*/,
                          const PlannerOptions& options) {
  static obs::Counter* plans =
      obs::MetricsRegistry::Global().GetCounter("phys.plans");
  static obs::Counter* merge_steps =
      obs::MetricsRegistry::Global().GetCounter("phys.merge_steps");
  static obs::Counter* inlj_steps =
      obs::MetricsRegistry::Global().GetCounter("phys.inlj_steps");
  plans->Add();

  PhysicalPlan out;
  out.mode = ResolveJoinMode(options.mode);
  const bool has_est = plan.step_estimates.size() == plan.order.size() &&
                       plan.tp_estimates.size() == bgp.patterns.size();

  // The canonical row order's leading key is the first pattern's first free
  // component (DFS emits rows sorted by it); a later merge on that variable
  // needs no left-side sort.
  std::optional<VarId> leading_var;
  if (!plan.order.empty() && plan.order[0] < bgp.patterns.size()) {
    const EncodedPattern& tp0 = bgp.patterns[plan.order[0]];
    std::vector<int> probe_order = rdf::Graph::MatchOrder(
        !tp0.s.is_var(), !tp0.p.is_var(), !tp0.o.is_var());
    if (!probe_order.empty()) leading_var = VarAt(tp0, probe_order[0]);
  }

  std::vector<bool> bound(bgp.NumVars(), false);
  out.steps.reserve(plan.order.size());
  for (size_t k = 0; k < plan.order.size(); ++k) {
    const uint32_t tp_idx = plan.order[k];
    if (tp_idx >= bgp.patterns.size()) continue;  // verifier reports this
    const EncodedPattern& tp = bgp.patterns[tp_idx];
    PhysicalStep st;
    st.pattern = tp_idx;
    if (has_est) {
      st.est_left = k == 0 ? 0 : plan.step_estimates[k - 1];
      st.est_right = plan.tp_estimates[tp_idx].card;
      st.est_out = plan.step_estimates[k];
    }

    if (k == 0) {
      st.op = OpKind::kScan;
      st.rationale = "index scan of the first pattern";
    } else {
      // Join candidates: components of this pattern holding a variable
      // already bound by the prefix. Subject joins are preferred, then
      // object, then predicate (matching index-run availability).
      std::optional<int> general, mergeable;
      for (int pos : {0, 2, 1}) {
        std::optional<VarId> v = VarAt(tp, pos);
        if (!v || !bound[*v]) continue;
        if (!general) general = pos;
        if (!mergeable && MergeRunAvailable(tp, pos)) mergeable = pos;
      }
      st.merge_ok = mergeable.has_value();

      auto set_join = [&](int pos) {
        st.join_pos = pos;
        st.join_var = *VarAt(tp, pos);
        st.left_presorted = leading_var && st.join_var == *leading_var;
      };

      if (!general) {
        st.op = OpKind::kProduct;
        st.rationale = "no shared variable with the join prefix";
      } else {
        const double l = st.est_left;
        switch (out.mode) {
          case JoinMode::kInlj:
            st.op = OpKind::kInlj;
            set_join(*general);
            st.rationale = "forced by join mode inlj";
            break;
          case JoinMode::kMerge:
            if (st.merge_ok) {
              st.op = OpKind::kMerge;
              set_join(*mergeable);
              st.rationale = "forced by join mode merge";
            } else {
              st.op = OpKind::kInlj;
              set_join(*general);
              st.rationale =
                  "merge unavailable: no index run sorted by the join "
                  "component; fell back to inlj";
            }
            break;
          case JoinMode::kEnv:  // ResolveJoinMode never returns kEnv
          case JoinMode::kAuto:
            // The rule of DESIGN.md §9: INLJ unless a non-tiny left input
            // can merge with a sorted index run.
            if (!has_est) {
              st.op = OpKind::kInlj;
              set_join(*general);
              st.rationale = "no estimates (textual plan); inlj";
            } else if (l <= options.tiny_left) {
              st.op = OpKind::kInlj;
              set_join(*general);
              st.rationale = "tiny left side (~" + CompactDouble(l) +
                             " rows <= " + CompactDouble(options.tiny_left) +
                             "); inlj";
            } else if (st.merge_ok) {
              st.op = OpKind::kMerge;
              set_join(*mergeable);
              st.rationale = "left side ~" + CompactDouble(l) +
                             " rows; merge with the " +
                             MergeRunName(tp, *mergeable);
            } else {
              st.op = OpKind::kInlj;
              set_join(*general);
              st.rationale =
                  "no index run sorted by the join component; inlj";
            }
            break;
        }
      }
    }

    switch (st.op) {
      case OpKind::kMerge: merge_steps->Add(); break;
      case OpKind::kInlj: inlj_steps->Add(); break;
      default: break;
    }
    for (int pos : {0, 1, 2}) {
      if (std::optional<VarId> v = VarAt(tp, pos)) bound[*v] = true;
    }
    out.steps.push_back(std::move(st));
  }
  return out;
}

}  // namespace shapestats::phys
