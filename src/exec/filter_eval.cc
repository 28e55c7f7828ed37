#include "exec/filter_eval.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <unordered_set>

namespace shapestats::exec {

using rdf::TermId;
using sparql::CompareOp;
using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;
using sparql::ParsedQuery;

std::optional<double> NumericValue(rdf::TermView term) {
  if (!term.is_literal() || term.lexical.empty()) return std::nullopt;
  // A view does not end in a NUL, so strtod reads a copy.
  char small[64];
  std::string large;
  const char* text = small;
  if (term.lexical.size() < sizeof(small)) {
    std::memcpy(small, term.lexical.data(), term.lexical.size());
    small[term.lexical.size()] = '\0';
  } else {
    large = term.lexical;
    text = large.c_str();
  }
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (errno != 0 || end != text + term.lexical.size()) return std::nullopt;
  return v;
}

bool CompareTerms(rdf::TermView ta, std::optional<double> va, CompareOp op,
                  rdf::TermView tb, std::optional<double> vb) {
  int cmp;
  if (va && vb) {
    cmp = *va < *vb ? -1 : (*va > *vb ? 1 : 0);
  } else if (op == CompareOp::kEq || op == CompareOp::kNe) {
    cmp = ta == tb ? 0 : 1;
  } else {
    cmp = ta.lexical.compare(tb.lexical);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  switch (op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

Result<FilterPlan> EncodeFilters(const ParsedQuery& query,
                                 const EncodedBgp& bgp,
                                 const std::vector<uint32_t>& order) {
  FilterPlan plan;
  plan.by_depth.resize(order.size());

  // Earliest step at which each variable is bound under `order`.
  std::vector<size_t> bound_at(bgp.NumVars(), order.size());
  for (size_t step = 0; step < order.size(); ++step) {
    const EncodedPattern& tp = bgp.patterns[order[step]];
    for (const EncodedTerm* t : {&tp.s, &tp.p, &tp.o}) {
      if (t->is_var() && bound_at[t->id] == order.size()) {
        bound_at[t->id] = step;
      }
    }
  }
  for (const sparql::FilterComparison& f : query.filters) {
    EncodedFilter ef;
    size_t depth = 0;
    auto encode = [&](const sparql::PatternTerm& t) -> Result<EncodedOperand> {
      EncodedOperand op;
      if (sparql::IsVar(t)) {
        const int v = bgp.FindVar(sparql::AsVar(t).name);
        if (v < 0) {
          return Status::InvalidArgument("FILTER variable ?" +
                                         sparql::AsVar(t).name +
                                         " does not occur in the BGP");
        }
        depth = std::max(depth, bound_at[v]);
        op.is_var = true;
        op.var_id = static_cast<uint32_t>(v);
        return op;
      }
      op.term = sparql::AsTerm(t);
      op.number = NumericValue(op.term.view());
      return op;
    };
    ASSIGN_OR_RETURN(ef.lhs, encode(f.lhs));
    ef.op = f.op;
    ASSIGN_OR_RETURN(ef.rhs, encode(f.rhs));
    ef.ready_depth = depth;
    // Constant-only filters decide satisfiability up front.
    if (!ef.lhs.is_var && !ef.rhs.is_var) {
      if (!CompareTerms(ef.lhs.term.view(), ef.lhs.number, ef.op,
                        ef.rhs.term.view(), ef.rhs.number)) {
        plan.unsatisfiable = true;
      }
      continue;
    }
    plan.by_depth[ef.ready_depth].push_back(std::move(ef));
  }
  return plan;
}

bool FiltersPass(const std::vector<EncodedFilter>& filters,
                 const TermId* bindings,
                 const rdf::TermDictionary& dict) {
  for (const EncodedFilter& f : filters) {
    const rdf::TermView lhs =
        f.lhs.is_var ? dict.term(bindings[f.lhs.var_id]) : f.lhs.term.view();
    const rdf::TermView rhs =
        f.rhs.is_var ? dict.term(bindings[f.rhs.var_id]) : f.rhs.term.view();
    // A constant's number was read once, in EncodeFilters; a bound
    // variable's is read here, and only when the other side can be one.
    const std::optional<double> lnum =
        f.lhs.is_var ? NumericValue(lhs) : f.lhs.number;
    const std::optional<double> rnum =
        !lnum ? std::nullopt : f.rhs.is_var ? NumericValue(rhs) : f.rhs.number;
    if (!CompareTerms(lhs, lnum, f.op, rhs, rnum)) return false;
  }
  return true;
}

Result<SelectShape> PrepareSelectShape(const ParsedQuery& query,
                                       const EncodedBgp& bgp) {
  SelectShape shape;
  if (query.select_all) {
    for (sparql::VarId v = 0; v < bgp.NumVars(); ++v) {
      shape.var_names.push_back(bgp.var_names[v]);
      shape.projection.push_back(v);
    }
  } else {
    for (const sparql::Variable& v : query.projection) {
      const int id = bgp.FindVar(v.name);
      if (id < 0) {
        return Status::InvalidArgument("unknown projected variable ?" + v.name);
      }
      shape.var_names.push_back(v.name);
      shape.projection.push_back(static_cast<sparql::VarId>(id));
    }
  }
  if (query.order_by) {
    const int id = bgp.FindVar(query.order_by->var.name);
    if (id < 0) return Status::InvalidArgument("unknown ORDER BY variable");
    shape.order_var = static_cast<sparql::VarId>(id);
  }
  return shape;
}

Status ApplyModifiers(const ParsedQuery& query, const rdf::TermDictionary& dict,
                      std::vector<std::vector<TermId>>* rows,
                      std::vector<TermId>* order_keys) {
  // DISTINCT before ORDER BY (projection already applied).
  if (query.distinct) {
    struct RowHash {
      size_t operator()(const std::vector<TermId>& row) const {
        size_t h = 0x9E3779B97F4A7C15ULL;
        for (TermId t : row) h = h * 0x100000001B3ULL ^ t;
        return h;
      }
    };
    std::unordered_set<std::vector<TermId>, RowHash> seen;
    std::vector<std::vector<TermId>> unique_rows;
    std::vector<TermId> unique_keys;
    for (size_t i = 0; i < rows->size(); ++i) {
      if (seen.insert((*rows)[i]).second) {
        unique_rows.push_back((*rows)[i]);
        if (query.order_by) unique_keys.push_back((*order_keys)[i]);
      }
    }
    *rows = std::move(unique_rows);
    *order_keys = std::move(unique_keys);
  }
  if (query.order_by) {
    std::vector<size_t> idx(rows->size());
    std::iota(idx.begin(), idx.end(), 0);
    // Each key is read from the dictionary, and its number parsed, once,
    // not at every comparison.
    std::vector<rdf::TermView> keys;
    std::vector<std::optional<double>> numbers;
    keys.reserve(order_keys->size());
    numbers.reserve(order_keys->size());
    for (TermId id : *order_keys) {
      keys.push_back(dict.term(id));
      numbers.push_back(NumericValue(keys.back()));
    }
    const CompareOp before =
        query.order_by->descending ? CompareOp::kGt : CompareOp::kLt;
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return CompareTerms(keys[a], numbers[a], before, keys[b], numbers[b]);
    });
    std::vector<std::vector<TermId>> sorted;
    sorted.reserve(idx.size());
    for (size_t i : idx) sorted.push_back(std::move((*rows)[i]));
    *rows = std::move(sorted);
  }
  // OFFSET / LIMIT.
  if (query.offset > 0) {
    if (query.offset >= rows->size()) {
      rows->clear();
    } else {
      rows->erase(rows->begin(),
                  rows->begin() + static_cast<long>(query.offset));
    }
  }
  if (query.limit && rows->size() > *query.limit) {
    rows->resize(*query.limit);
  }
  return Status::OK();
}

}  // namespace shapestats::exec
