#include "phys/phys_executor.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "exec/filter_eval.h"
#include "exec/work_meter.h"
#include "obs/resource_tracker.h"

namespace shapestats::phys {

using rdf::OptId;
using rdf::TermId;
using rdf::Triple;
using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;
using sparql::ParsedQuery;

namespace {

TermId Comp(const Triple& t, int pos) {
  return pos == 0 ? t.s : (pos == 1 ? t.p : t.o);
}

OptId ConstOpt(const EncodedTerm& e) {
  if (e.is_bound()) return e.id;
  return std::nullopt;
}

// What a step does with one component of every triple it emits. All rows
// of step k carry the same bound set (the variables of steps 0..k-1), so
// the choice is made once per step, not per triple (DESIGN.md §9).
enum class BindOp : uint8_t {
  kConst,  // the component must equal a constant
  kLeft,   // ... must equal a prefix-bound column of the left row
  kSame,   // ... must equal an earlier component (a repeated free variable)
  kWrite,  // ... binds a free variable's column
};

// A step's bind program: per component an op and its argument (the
// constant, the left-row column, the earlier position or the column to
// write). It keeps every check, also those the index run already implies.
struct BindProgram {
  BindOp op[3];
  TermId arg[3];

  bool Check(const TermId* lrow, const Triple& t) const {
    for (int pos = 0; pos < 3; ++pos) {
      const TermId v = Comp(t, pos);
      switch (op[pos]) {
        case BindOp::kConst:
          if (v != arg[pos]) return false;
          break;
        case BindOp::kLeft:
          if (v != lrow[arg[pos]]) return false;
          break;
        case BindOp::kSame:
          if (v != Comp(t, static_cast<int>(arg[pos]))) return false;
          break;
        case BindOp::kWrite:
          break;
      }
    }
    return true;
  }

  void Write(const Triple& t, TermId* row) const {
    for (int pos = 0; pos < 3; ++pos) {
      if (op[pos] == BindOp::kWrite) row[arg[pos]] = Comp(t, pos);
    }
  }
};

// The join order a physical plan prescribes: steps[k].pattern.
std::vector<uint32_t> JoinOrder(const PhysicalPlan& pplan) {
  std::vector<uint32_t> order;
  order.reserve(pplan.steps.size());
  for (const PhysicalStep& st : pplan.steps) order.push_back(st.pattern);
  return order;
}

// The sorted contiguous index run backing the right side of a merge join on
// component `join_pos`, selected from the pattern's constants alone (see
// MergeRunAvailable). Prefix-bound variables in other positions are checked
// per emitted row, not folded into the run.
std::span<const Triple> MergeRightSpan(const rdf::Graph& g,
                                       const EncodedPattern& tp,
                                       int join_pos) {
  if (join_pos == 0) {
    if (tp.p.is_bound() && tp.o.is_bound()) {
      return g.Match(std::nullopt, tp.p.id, tp.o.id);  // POS run, by subject
    }
    if (tp.p.is_bound()) return g.PredicateBySubject(tp.p.id);  // PSO
    if (tp.o.is_bound()) {
      return g.Match(std::nullopt, std::nullopt, tp.o.id);  // OSP, by subject
    }
    return g.triples();  // SPO
  }
  // join_pos == 2 (object).
  if (tp.s.is_bound() && tp.p.is_bound()) {
    return g.Match(tp.s.id, tp.p.id, std::nullopt);  // SPO run, by object
  }
  if (tp.p.is_bound()) {
    return g.Match(std::nullopt, tp.p.id, std::nullopt);  // POS, by object
  }
  return g.triples_by_object();  // OSP
}

// The first index at or after `from` whose component `pos` is not below
// `v`, in a run sorted by that component: an exponential search from
// `from`, then a binary search inside the last step. O(log(result - from)).
size_t Gallop(std::span<const Triple> run, size_t from, int pos, TermId v) {
  auto below = [pos, v](const Triple& t) { return Comp(t, pos) < v; };
  if (from >= run.size() || !below(run[from])) return from;
  size_t lo = from, step = 1;  // invariant: run[lo] is below v
  while (lo + step < run.size() && below(run[lo + step])) {
    lo += step;
    step *= 2;
  }
  const size_t hi = std::min(lo + step, run.size());
  return std::partition_point(run.begin() + lo + 1, run.begin() + hi, below) -
         run.begin();
}

// Stable LSD radix sort of (key << 32 | row) words by their key half, one
// byte per pass. Passes over key bytes that are zero in every word are
// skipped. Since the words arrive in row order, the result is in (key, row)
// order. `spare` is resized and left holding garbage.
template <typename Vec>
void RadixSortByKey(Vec* words, Vec* spare) {
  uint64_t key_bits = 0;
  for (uint64_t w : *words) key_bits |= w >> 32;
  spare->resize(words->size());
  for (int shift = 32; shift < 64 && (key_bits >> (shift - 32)) != 0;
       shift += 8) {
    size_t start[257] = {};
    for (uint64_t w : *words) ++start[((w >> shift) & 0xff) + 1];
    for (int b = 0; b < 256; ++b) start[b + 1] += start[b];
    for (uint64_t w : *words) (*spare)[start[(w >> shift) & 0xff]++] = w;
    words->swap(*spare);
  }
}

class PhysEvaluator {
 public:
  // Materialization state (binding tables, the merge's key and group
  // arrays) is allocated through a CountingAllocator charging the query's
  // MemoryAccount, so build bytes and the peak per-query footprint are
  // measured where they are spent. A null account makes the allocator a
  // passthrough; the container types never change.
  template <typename T>
  using Counted = std::vector<T, obs::CountingAllocator<T>>;

  PhysEvaluator(const rdf::Graph& graph, const ParsedQuery& query,
                const EncodedBgp& bgp, const PhysicalPlan& pplan,
                const exec::ExecOptions& options)
      : graph_(graph),
        query_(query),
        bgp_(bgp),
        pplan_(pplan),
        meter_(options, pplan.steps.size()),
        account_(options.resources != nullptr ? &options.resources->memory()
                                              : nullptr),
        width_(bgp.NumVars()),
        order_(JoinOrder(pplan)),
        rows_(obs::CountingAllocator<TermId>(account_)),
        next_rows_(obs::CountingAllocator<TermId>(account_)),
        prefix_bound_(bgp.NumVars(), false) {}

  Result<exec::ResultTable> Run() {
    ASSIGN_OR_RETURN(exec::SelectShape shape,
                     exec::PrepareSelectShape(query_, bgp_));
    shape_ = std::move(shape);
    ASSIGN_OR_RETURN(filters_, exec::EncodeFilters(query_, bgp_, order_));
    if (!filters_.unsatisfiable && !order_.empty()) Execute();
    exec::ResultTable table;
    table.var_names = shape_.var_names;
    table.bgp_matches = num_rows_;
    std::vector<TermId> order_keys;
    table.rows.reserve(num_rows_);
    if (shape_.order_var) order_keys.reserve(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) {
      const TermId* row = rows_.data() + i * width_;
      std::vector<TermId> out(shape_.projection.size());
      for (size_t c = 0; c < shape_.projection.size(); ++c) {
        out[c] = row[shape_.projection[c]];
      }
      if (shape_.order_var) order_keys.push_back(row[*shape_.order_var]);
      table.rows.push_back(std::move(out));
    }
    RETURN_NOT_OK(exec::ApplyModifiers(query_, graph_.dict(), &table.rows,
                                       &order_keys));
    table.timed_out = meter_.timed_out();
    table.cancelled = meter_.cancelled();
    table.row_capped = meter_.row_capped();
    table.elapsed_ms = meter_.ElapsedMs();
    meter_.Finish(exec::RunKind::kPhys);
    return table;
  }

 private:
  void Execute() {
    for (size_t k = 0; k < order_.size(); ++k) {
      Step(k);
      if (meter_.timed_out()) {
        // Rows of an aborted non-final step are an intermediate prefix
        // join, not solutions; the streaming executor would have emitted
        // nothing for them, so neither do we. An abort in the final step
        // leaves valid (partial) full-width solution rows.
        if (k + 1 < order_.size()) num_rows_ = 0;
        break;
      }
    }
  }

  void Step(size_t k) {
    const PhysicalStep& st = pplan_.steps[k];
    const EncodedPattern& tp = bgp_.patterns[st.pattern];
    next_count_ = 0;
    if (!tp.HasMissingConstant()) {
      prog_ = Compile(tp);
      if (k == 0) {
        ScanStep(k, tp);
      } else if (num_rows_ > 0 && st.op == OpKind::kMerge) {
        MergeStep(k, st, tp);
      } else if (num_rows_ > 0) {
        // kInlj, kProduct (and any other op, defensively) probe per row.
        InljStep(k, tp);
      }
    }
    rows_.swap(next_rows_);
    num_rows_ = next_count_;
    for (const EncodedTerm* e : {&tp.s, &tp.p, &tp.o}) {
      if (e->is_var()) prefix_bound_[e->id] = true;
    }
  }

  // ---- operators ---------------------------------------------------------

  void ScanStep(size_t k, const EncodedPattern& tp) {
    if (meter_.Probe(k)) return;
    EmitSpan(k, nullptr,
             graph_.Match(ConstOpt(tp.s), ConstOpt(tp.p), ConstOpt(tp.o)));
  }

  void InljStep(size_t k, const EncodedPattern& tp) {
    for (size_t i = 0; i < num_rows_; ++i) {
      const TermId* lrow = LeftRow(i);
      if (meter_.Probe(k)) return;
      if (!EmitSpan(k, lrow, graph_.Match(RowOpt(tp.s, lrow),
                                          RowOpt(tp.p, lrow),
                                          RowOpt(tp.o, lrow)))) {
        return;
      }
    }
  }

  // Merge join with the index run sorted by the join component. Left rows
  // are visited in join-key order (row order when already sorted, else a
  // radix sort's order), and each distinct key's run group is found by a
  // gallop from the previous group's end. Rows are emitted in left-row
  // order, each group in run order: that is the depth-first order, since
  // every run is sorted by its free components in MatchOrder sequence
  // (DESIGN.md §9).
  // Kept out of line: gcc 12 -O2 otherwise inlines it, with the radix
  // sort, into the step loop, and lubm-analytic qps drops ~10%
  // (interleaved shapebench runs on an AMD EPYC host).
  [[gnu::noinline]] void MergeStep(size_t k, const PhysicalStep& st,
                                   const EncodedPattern& tp) {
    const int jp = st.join_pos;
    const sparql::VarId jv = st.join_var;
    const std::span<const Triple> run =
        jp == 0 || jp == 2 ? MergeRightSpan(graph_, tp, jp)
                           : std::span<const Triple>();
    // Defensive fallbacks for ill-formed plans (the verifier reports them;
    // execution must still be correct): predicate joins have no run, and a
    // join variable unbound in the prefix cannot drive a merge. Packed
    // group bounds need 32-bit run offsets.
    if ((jp != 0 && jp != 2) || jv >= width_ || run.size() > UINT32_MAX) {
      InljStep(k, tp);
      return;
    }
    auto key = [&](size_t i) { return rows_[i * width_ + jv]; };
    bool sorted = true;
    for (size_t i = 0; i < num_rows_; ++i) {
      if (key(i) == rdf::kInvalidTermId) {
        InljStep(k, tp);
        return;
      }
      if (i > 0 && key(i - 1) > key(i)) sorted = false;
    }

    // Unsorted left rows get (key << 32 | row) words sorted into (key, row)
    // order, and then, per left row, their run group packed as
    // (lo << 32 | hi) in the sort's spare array.
    Counted<uint64_t> words{obs::CountingAllocator<uint64_t>(account_)};
    Counted<uint64_t> groups{obs::CountingAllocator<uint64_t>(account_)};
    if (!sorted) {
      words.resize(num_rows_);
      for (size_t i = 0; i < num_rows_; ++i) {
        words[i] = uint64_t{key(i)} << 32 | i;
      }
      RadixSortByKey(&words, &groups);
    }
    auto row_at = [&](size_t r) -> size_t {
      return sorted ? r : static_cast<uint32_t>(words[r]);
    };

    auto emit_group = [&](size_t i, size_t lo, size_t hi) {
      return EmitSpan(k, LeftRow(i), run.subspan(lo, hi - lo));
    };
    size_t lo = 0, hi = 0;
    for (size_t r = 0; r < num_rows_; ++r) {
      const size_t i = row_at(r);
      const TermId v = key(i);
      if (r == 0 || v != key(row_at(r - 1))) {
        if (meter_.Probe(k)) return;
        lo = Gallop(run, hi, jp, v);
        for (hi = lo; hi < run.size() && Comp(run[hi], jp) == v;) ++hi;
      }
      if (!sorted) {
        groups[i] = uint64_t{lo} << 32 | hi;
      } else if (!emit_group(i, lo, hi)) {
        return;
      }
    }
    for (size_t i = 0; !sorted && i < num_rows_; ++i) {
      if (!emit_group(i, groups[i] >> 32, groups[i] & UINT32_MAX)) return;
    }
  }

  // ---- row plumbing ------------------------------------------------------

  const TermId* LeftRow(size_t left) const {
    return rows_.data() + left * width_;
  }

  OptId RowOpt(const EncodedTerm& e, const TermId* lrow) const {
    if (e.is_bound()) return e.id;
    if (e.is_var() && lrow != nullptr) {
      const TermId v = lrow[e.id];
      if (v != rdf::kInvalidTermId) return v;
    }
    return std::nullopt;
  }

  // The step's bind program, from the pattern and prefix_bound_.
  BindProgram Compile(const EncodedPattern& tp) const {
    BindProgram prog{};
    const EncodedTerm* terms[3] = {&tp.s, &tp.p, &tp.o};
    for (int pos = 0; pos < 3; ++pos) {
      const EncodedTerm& e = *terms[pos];
      prog.op[pos] = e.is_var() ? BindOp::kWrite : BindOp::kConst;
      prog.arg[pos] = e.id;
      if (!e.is_var()) continue;
      if (prefix_bound_[e.id]) prog.op[pos] = BindOp::kLeft;
      for (int q = 0; q < pos && prog.op[pos] == BindOp::kWrite; ++q) {
        if (terms[q]->is_var() && terms[q]->id == e.id) {
          prog.op[pos] = BindOp::kSame;
          prog.arg[pos] = static_cast<TermId>(q);
        }
      }
    }
    return prog;
  }

  // Runs the bind program's checks on `t`; a passing match is counted
  // (post-bind, pre-filter — the depth-first executor's step_rows_produced
  // semantics) and applies the intermediate-row abort.
  bool ProduceCheck(size_t k, const TermId* lrow, const Triple& t) {
    if (!prog_.Check(lrow, t)) return false;
    meter_.Produce(k);
    return true;
  }

  // Streaming commit of a probe span or merge group: room for every triple
  // is made once, then each bound row is written in place (in emission
  // order). False when the run must stop.
  bool EmitSpan(size_t k, const TermId* lrow, std::span<const Triple> span) {
    TermId* out = RowsFor(span.size());
    for (const Triple& t : span) {
      if (meter_.Scan(k)) return false;
      if (!ProduceCheck(k, lrow, t)) continue;
      if (meter_.timed_out()) return false;
      if (AppendRow(k, lrow, t, out)) out += width_;
    }
    return true;
  }

  // Room for `n` more rows of the next table; returns where the next row
  // goes. The table only grows, so later steps reuse its capacity.
  TermId* RowsFor(size_t n) {
    const size_t need = (next_count_ + n) * width_;
    if (next_rows_.size() < need) {
      next_rows_.resize(std::max(need, next_rows_.size() * 2));
    }
    return next_rows_.data() + next_count_ * width_;
  }

  // Writes the left row and `t`'s bindings at `row` and keeps the row when
  // the step's filters pass.
  bool AppendRow(size_t k, const TermId* lrow, const Triple& t, TermId* row) {
    if (lrow != nullptr) {
      std::copy(lrow, lrow + width_, row);
    } else {
      std::fill(row, row + width_, rdf::kInvalidTermId);
    }
    prog_.Write(t, row);
    if (!filters_.by_depth[k].empty() &&
        !exec::FiltersPass(filters_.by_depth[k], row, graph_.dict())) {
      return false;
    }
    ++next_count_;
    meter_.Materialize();
    return true;
  }

  const rdf::Graph& graph_;
  const ParsedQuery& query_;
  const EncodedBgp& bgp_;
  const PhysicalPlan& pplan_;
  exec::WorkMeter meter_;
  obs::MemoryAccount* account_;  // null when no tracker is attached
  const size_t width_;  // bindings per row (number of BGP variables)

  std::vector<uint32_t> order_;       // join order: steps[k].pattern
  Counted<TermId> rows_;              // current binding table, row-major
  size_t num_rows_ = 0;
  Counted<TermId> next_rows_;         // next step's output table
  size_t next_count_ = 0;
  std::vector<bool> prefix_bound_;    // variables bound by steps 0..k-1
  BindProgram prog_{};                // the current step's bind program

  exec::SelectShape shape_;
  exec::FilterPlan filters_;
};

}  // namespace

Result<exec::ResultTable> ExecuteSelectPhysical(
    const rdf::Graph& graph, const ParsedQuery& query, const EncodedBgp& bgp,
    const PhysicalPlan& pplan, const exec::ExecOptions& options) {
  if (options.limit > 0) {
    return Status::InvalidArgument(
        "the physical executor does not support LIMIT pushdown; use the "
        "streaming executor for early termination");
  }
  RETURN_NOT_OK(
      exec::CheckJoinOrder(graph, bgp.patterns.size(), JoinOrder(pplan)));
  return PhysEvaluator(graph, query, bgp, pplan, options).Run();
}

}  // namespace shapestats::phys
