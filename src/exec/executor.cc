#include "exec/executor.h"

#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>

#include "exec/filter_eval.h"
#include "exec/select_executor.h"
#include "exec/work_meter.h"
#include "util/table_printer.h"

namespace shapestats::exec {

using rdf::OptId;
using rdf::TermId;
using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;
using sparql::ParsedQuery;

uint64_t ExecResult::TrueCost() const {
  return std::accumulate(step_cards.begin(), step_cards.end(), uint64_t{0});
}

namespace {

// What a run of the depth-first evaluator produces. kCount serves
// ExecuteBgp: per-step true cardinalities, no query, early stop at
// ExecOptions::limit results. kRows serves ExecuteSelect: filters applied
// at the depth where their variables are bound, projected rows, early stop
// at OFFSET + LIMIT rows when no ORDER BY or DISTINCT needs them all.
enum class Mode { kCount, kRows };

// Index nested-loop join over the store, depth first: step k probes
// Graph::Match with the bindings of steps 0..k-1 and recurses per match.
// The mode is a template parameter so the per-triple loop carries no mode
// dispatch.
template <Mode kMode>
class DepthFirstEvaluator {
  static constexpr bool kRows = kMode == Mode::kRows;

 public:
  DepthFirstEvaluator(const rdf::Graph& graph, const EncodedBgp& bgp,
                      const std::vector<uint32_t>& order,
                      const ExecOptions& options)
      : graph_(graph),
        bgp_(bgp),
        order_(order),
        meter_(options, order.size()),
        bindings_(bgp.NumVars(), rdf::kInvalidTermId) {
    if constexpr (!kRows) {
      step_cards_.assign(order.size(), 0);
      if (options.limit != 0) stop_at_ = options.limit;
    }
  }

  ExecResult Count() && {
    static_assert(!kRows);
    if (!order_.empty()) Recurse(0);
    ExecResult result;
    result.num_results = step_cards_.empty() ? 0 : step_cards_.back();
    result.step_cards = std::move(step_cards_);
    result.timed_out = meter_.timed_out();
    result.cancelled = meter_.cancelled();
    result.row_capped = meter_.row_capped();
    result.elapsed_ms = meter_.ElapsedMs();
    meter_.Finish(RunKind::kBgp);
    return result;
  }

  Result<ResultTable> Select(const ParsedQuery& query) && {
    static_assert(kRows);
    ASSIGN_OR_RETURN(shape_, PrepareSelectShape(query, bgp_));
    ASSIGN_OR_RETURN(filters_, EncodeFilters(query, bgp_, order_));
    if (!query.order_by && !query.distinct && query.limit) {
      stop_at_ = query.offset + *query.limit;
    }
    table_.var_names = shape_.var_names;
    if (!filters_.unsatisfiable && !order_.empty()) Recurse(0);
    RETURN_NOT_OK(ApplyModifiers(query, graph_.dict(), &table_.rows,
                                 &order_keys_));
    table_.timed_out = meter_.timed_out();
    table_.cancelled = meter_.cancelled();
    table_.row_capped = meter_.row_capped();
    table_.elapsed_ms = meter_.ElapsedMs();
    meter_.Finish(RunKind::kSelect);
    return std::move(table_);
  }

 private:
  // Substitutes current bindings into pattern position `t`; returns the
  // bound id, nullopt for a free position, and sets `var_out` when the
  // position is a variable that is still unbound (to be bound by matches).
  OptId Resolve(const EncodedTerm& t, std::optional<sparql::VarId>* var_out) {
    if (t.is_bound()) return t.id;
    if (t.is_missing()) return std::nullopt;  // handled by caller: no match
    TermId bound = bindings_[t.id];
    if (bound != rdf::kInvalidTermId) return bound;
    *var_out = t.id;
    return std::nullopt;
  }

  bool LimitReached() const {
    if constexpr (kRows) {
      return table_.rows.size() >= stop_at_;
    } else {
      return step_cards_.back() >= stop_at_;
    }
  }

  void Recurse(size_t depth) {
    const EncodedPattern& tp = bgp_.patterns[order_[depth]];
    if (tp.HasMissingConstant()) return;

    std::optional<sparql::VarId> vs, vp, vo;
    OptId s = Resolve(tp.s, &vs);
    OptId p = Resolve(tp.p, &vp);
    OptId o = Resolve(tp.o, &vo);
    if (meter_.Probe(depth)) return;

    for (const rdf::Triple& t : graph_.Match(s, p, o)) {
      if (meter_.Scan(depth)) break;
      // A variable repeated inside one pattern must match equal terms.
      if (vs && vp && *vs == *vp && t.s != t.p) continue;
      if (vs && vo && *vs == *vo && t.s != t.o) continue;
      if (vp && vo && *vp == *vo && t.p != t.o) continue;

      if (vs) bindings_[*vs] = t.s;
      if (vp) bindings_[*vp] = t.p;
      if (vo) bindings_[*vo] = t.o;

      if constexpr (!kRows) ++step_cards_[depth];
      if (meter_.Produce(depth)) break;
      // Count mode stops on the binding that completes LIMIT results;
      // row mode after the iteration that emitted the last needed row.
      if constexpr (!kRows) {
        if (LimitReached()) break;
      }
      if (!kRows || filters_.by_depth[depth].empty() ||
          FiltersPass(filters_.by_depth[depth], bindings_.data(),
                      graph_.dict())) {
        if (depth + 1 < order_.size()) {
          Recurse(depth + 1);
          if (meter_.timed_out()) break;
        } else if constexpr (kRows) {
          EmitRow();
        }
      }
      if constexpr (kRows) {
        if (LimitReached()) break;
      }
    }
    if (vs) bindings_[*vs] = rdf::kInvalidTermId;
    if (vp) bindings_[*vp] = rdf::kInvalidTermId;
    if (vo) bindings_[*vo] = rdf::kInvalidTermId;
  }

  void EmitRow() {
    ++table_.bgp_matches;
    std::vector<TermId> row(shape_.projection.size());
    for (size_t c = 0; c < shape_.projection.size(); ++c) {
      row[c] = bindings_[shape_.projection[c]];
    }
    if (shape_.order_var) order_keys_.push_back(bindings_[*shape_.order_var]);
    table_.rows.push_back(std::move(row));
  }

  const rdf::Graph& graph_;
  const EncodedBgp& bgp_;
  const std::vector<uint32_t>& order_;
  WorkMeter meter_;
  std::vector<TermId> bindings_;
  uint64_t stop_at_ = std::numeric_limits<uint64_t>::max();

  std::vector<uint64_t> step_cards_;  // count mode
  SelectShape shape_;                 // row mode from here on
  FilterPlan filters_;
  std::vector<TermId> order_keys_;  // parallel to table_.rows (pre-sort)
  ResultTable table_;
};

}  // namespace

Result<ExecResult> ExecuteBgp(const rdf::Graph& graph, const EncodedBgp& bgp,
                              const std::vector<uint32_t>& order,
                              const ExecOptions& options) {
  RETURN_NOT_OK(CheckJoinOrder(graph, bgp.patterns.size(), order));
  return DepthFirstEvaluator<Mode::kCount>(graph, bgp, order, options)
      .Count();
}

Result<ExecResult> ExecuteBgp(const rdf::Graph& graph, const EncodedBgp& bgp,
                              const ExecOptions& options) {
  std::vector<uint32_t> order(bgp.patterns.size());
  std::iota(order.begin(), order.end(), 0);
  return ExecuteBgp(graph, bgp, order, options);
}

Result<ResultTable> ExecuteSelect(const rdf::Graph& graph,
                                  const ParsedQuery& query,
                                  const EncodedBgp& bgp,
                                  const std::vector<uint32_t>& order,
                                  const ExecOptions& options) {
  RETURN_NOT_OK(CheckJoinOrder(graph, bgp.patterns.size(), order));
  return DepthFirstEvaluator<Mode::kRows>(graph, bgp, order, options)
      .Select(query);
}

Result<ResultTable> ExecuteSelect(const rdf::Graph& graph,
                                  const ParsedQuery& query,
                                  const ExecOptions& options) {
  EncodedBgp bgp = sparql::EncodeBgp(query, graph.dict());
  std::vector<uint32_t> order(bgp.patterns.size());
  std::iota(order.begin(), order.end(), 0);
  return ExecuteSelect(graph, query, bgp, order, options);
}

std::string ResultTable::ToString(const rdf::TermDictionary& dict,
                                  size_t max_rows) const {
  std::vector<std::string> header;
  for (const std::string& v : var_names) header.push_back("?" + v);
  TablePrinter printer(header);
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ >= max_rows) break;
    std::vector<std::string> cells;
    for (TermId t : row) cells.push_back(dict.Pretty(t));
    printer.AddRow(cells);
  }
  std::string out = printer.Render();
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

}  // namespace shapestats::exec
