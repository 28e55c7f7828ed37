#include "check.h"

#include <algorithm>
#include <limits>

#include "card/estimator.h"
#include "exec/select_executor.h"
#include "opt/join_order.h"
#include "sparql/encoded_bgp.h"
#include "sparql/parser.h"

namespace shapestats::shapebench {

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashRow(const Row& row) {
  uint64_t h = Mix(row.size());
  for (rdf::TermId id : row) h = Mix(h ^ id);
  return h;
}

uint64_t HashString(const std::string& s, uint64_t h) {
  for (char c : s) h = Mix(h ^ static_cast<unsigned char>(c));
  return h;
}

Answer::Kind KindOf(const sparql::ParsedQuery& q) {
  if (q.is_ask) return Answer::Kind::kAsk;
  if (q.count_aggregate) return Answer::Kind::kCount;
  return Answer::Kind::kRows;
}

}  // namespace

Answer FromEngine(const sparql::ParsedQuery& q, engine::QueryResult&& r) {
  Answer a;
  a.kind = KindOf(q);
  a.ask = r.ask.value_or(false);
  a.count = r.count.value_or(0);
  a.vars = std::move(r.table.var_names);
  a.rows = std::move(r.table.rows);
  a.truncated = r.table.timed_out || r.table.cancelled;
  return a;
}

uint64_t Digest(const sparql::ParsedQuery& q, const Answer& a) {
  uint64_t h = Mix(static_cast<uint64_t>(a.kind) + 1);
  switch (a.kind) {
    case Answer::Kind::kAsk: return Mix(h ^ (a.ask ? 1 : 2));
    case Answer::Kind::kCount: return Mix(h ^ a.count);
    case Answer::Kind::kRows: break;
  }
  for (const std::string& v : a.vars) h = HashString(v, Mix(h));
  h = Mix(h ^ a.rows.size());
  if (q.order_by) {
    for (const Row& row : a.rows) h = Mix(h ^ HashRow(row));
    return h;
  }
  // Multiset digest: a commutative sum of row hashes, so no sort is needed.
  uint64_t sum = 0;
  for (const Row& row : a.rows) sum += HashRow(row);
  return Mix(h ^ sum);
}

bool Matches(const sparql::ParsedQuery& q, const Expected& e, Answer& a) {
  if (a.truncated) return false;
  if (!e.subset) return Digest(q, a) == e.digest;
  if (a.kind != Answer::Kind::kRows || a.rows.size() != e.rows) return false;
  std::sort(a.rows.begin(), a.rows.end());
  return std::includes(e.full.begin(), e.full.end(), a.rows.begin(),
                       a.rows.end());
}

Result<Expected> Oracle(const engine::QueryEngine& engine,
                        const std::string& text) {
  ASSIGN_OR_RETURN(sparql::ParsedQuery q, sparql::ParseQuery(text));
  sparql::ParsedQuery full = q;
  Expected e;
  e.subset = q.limit.has_value() || q.offset > 0;
  e.subset = e.subset && !q.order_by && !q.is_ask && !q.count_aggregate;
  if (e.subset || q.is_ask) {
    full.limit.reset();
    full.offset = 0;
  }
  if (q.count_aggregate) {
    full.count_aggregate = false;
    full.select_all = true;
    full.projection.clear();
  }
  const rdf::Graph& g = engine.graph();
  sparql::EncodedBgp bgp = sparql::EncodeBgp(full, g.dict());
  const bool shapes = engine.shapes().NumNodeShapes() > 0;
  card::CardinalityEstimator est(engine.global_stats(),
                                 shapes ? &engine.shapes() : nullptr, g.dict(),
                                 shapes ? card::StatsMode::kShape
                                        : card::StatsMode::kGlobal);
  const opt::Plan plan = opt::PlanJoinOrder(bgp, est);
  ASSIGN_OR_RETURN(exec::ResultTable table,
                   exec::ExecuteSelect(g, full, bgp, plan.order));
  if (table.timed_out) return Status::Internal("oracle run was truncated");

  Answer a;
  a.kind = KindOf(q);
  a.ask = !table.rows.empty();
  a.count = table.rows.size();
  a.vars = std::move(table.var_names);
  if (e.subset) {
    const uint64_t n = table.rows.size();
    const uint64_t after_offset = n > q.offset ? n - q.offset : 0;
    e.rows = std::min(after_offset,
                      q.limit.value_or(std::numeric_limits<uint64_t>::max()));
    e.full = std::move(table.rows);
    std::sort(e.full.begin(), e.full.end());
    return e;
  }
  a.rows = std::move(table.rows);
  e.digest = Digest(q, a);
  return e;
}

}  // namespace shapestats::shapebench
