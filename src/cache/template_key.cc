#include "cache/template_key.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <numeric>
#include <unordered_map>

#include "obs/query_phase.h"

namespace shapestats::cache {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t MixByte(uint64_t h, uint8_t b) { return (h ^ b) * kFnvPrime; }

/// splitmix64 finalizer: cheap, well-distributed 64-bit mixer for the
/// internal refinement colors (the published template hash stays FNV-1a
/// of the key string).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-sensitive combine (Mix(Mix(h,a),b) != Mix(Mix(h,b),a)).
uint64_t Mix(uint64_t h, uint64_t v) { return Mix64(h ^ Mix64(v)); }

uint64_t HashBytes(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (unsigned char c : s) h = MixByte(h, c);
  return h;
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, end);
}

/// How one pattern slot enters the canonical form.
enum class SlotClass : uint8_t {
  kVar,       // alpha-renamed variable
  kConcrete,  // constant kept verbatim (predicate / rdf:type object)
  kParam,     // constant parameterized out (identity class only)
};

struct Slot {
  SlotClass cls = SlotClass::kVar;
  uint32_t node = 0;      // var id (kVar) or param class (kParam)
  uint64_t concrete = 0;  // term id (kConcrete)
};

/// Capacity of the per-thread memo of canonical forms; a full memo is
/// cleared. A three-pattern query's entry takes about 540 bytes.
constexpr size_t kMemoEntries = 1024;

/// Longest surface signature the memo stores; a SELECT * of 66 patterns
/// takes 1011 bytes. An entry grows with its query's patterns, projection
/// and FILTERs, so larger queries are canonicalized afresh each time
/// rather than pinned in every thread's memo.
constexpr size_t kMemoMaxSignatureBytes = 1024;

/// Per-thread working set reused across calls: canonicalization sits on the
/// cache-hit fast path, so the dozen small vectors and the rendered FILTER
/// strings it needs are kept warm instead of reallocated per query. `memo`
/// maps a query's surface signature to its canonical form, so refinement
/// runs once per query shape a thread sees.
struct Scratch {
  std::vector<std::array<Slot, 3>> slots;
  std::vector<uint32_t> param_ids;  // term id per parameter class
  std::vector<uint64_t> sig, vcol, pcol, pat_color, vacc, pacc, color_scratch;
  std::vector<uint32_t> perm, prev, vcanon, pcanon;
  std::vector<std::array<uint64_t, 6>> exact;
  std::string term;                  // one constant's N-Triples form
  std::vector<std::string> filters;  // rendered FILTERs (first n in use)
  std::string surface;               // the current query's surface signature
  std::unordered_map<std::string, CanonicalTemplate> memo;
};

Scratch& GetScratch() {
  thread_local Scratch scratch;
  return scratch;
}

template <typename T>
void AppendRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// A variable as the key names it: its id when a pattern mentions it,
/// otherwise its name.
void AppendVarRef(const sparql::EncodedBgp& bgp, const std::string& name,
                  std::string* out) {
  const int v = bgp.FindVar(name);
  if (v >= 0) {
    *out += 'v';
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(v));
  } else {
    *out += 'u';
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(name.size()));
    *out += name;
  }
}

/// Writes into `out` every input the canonical form depends on, in
/// fixed-width fields, so equal signatures mean equal canonical forms:
/// rdf_type_id, the query form flags, each classified slot in input order
/// (parameters numbered by first occurrence), the projection, ORDER BY and
/// the variable-only FILTERs. Returns false, leaving `out` unspecified,
/// when a FILTER carries a constant (its key holds the constant's value)
/// or the signature is longer than kMemoMaxSignatureBytes.
bool SurfaceSignature(const sparql::ParsedQuery& query,
                      const sparql::EncodedBgp& bgp, rdf::TermId rdf_type_id,
                      const std::vector<std::array<Slot, 3>>& slots,
                      std::string* out) {
  out->clear();
  const bool projects = !query.select_all && !query.count_aggregate;
  AppendRaw<rdf::TermId>(out, rdf_type_id);
  AppendRaw<uint8_t>(
      out, query.is_ask | query.count_aggregate << 1 | query.distinct << 2 |
               query.select_all << 3 | query.order_by.has_value() << 4 |
               (query.order_by && query.order_by->descending) << 5);
  AppendRaw<uint32_t>(out, static_cast<uint32_t>(bgp.NumVars()));
  AppendRaw<uint32_t>(out, static_cast<uint32_t>(slots.size()));
  for (const auto& pattern : slots) {
    for (const Slot& slot : pattern) {
      AppendRaw<SlotClass>(out, slot.cls);
      AppendRaw<uint32_t>(out, slot.cls == SlotClass::kConcrete
                                   ? static_cast<uint32_t>(slot.concrete)
                                   : slot.node);
    }
  }
  AppendRaw<uint32_t>(
      out, projects ? static_cast<uint32_t>(query.projection.size()) : 0);
  if (projects) {
    for (const auto& v : query.projection) AppendVarRef(bgp, v.name, out);
  }
  if (query.order_by) AppendVarRef(bgp, query.order_by->var.name, out);
  AppendRaw<uint32_t>(out, static_cast<uint32_t>(query.filters.size()));
  for (const auto& f : query.filters) {
    if (!sparql::IsVar(f.lhs) || !sparql::IsVar(f.rhs)) return false;
    *out += static_cast<char>(f.op);
    AppendVarRef(bgp, sparql::AsVar(f.lhs).name, out);
    AppendVarRef(bgp, sparql::AsVar(f.rhs).name, out);
  }
  return out->size() <= kMemoMaxSignatureBytes;
}

}  // namespace

std::string CanonicalTemplate::ShortId() const { return obs::TemplateId(hash); }

size_t MemoizedTemplates() { return GetScratch().memo.size(); }

CanonicalTemplate CanonicalizeTemplate(const sparql::ParsedQuery& query,
                                       const sparql::EncodedBgp& bgp,
                                       rdf::TermId rdf_type_id) {
  CanonicalTemplate out;
  CanonicalizeTemplate(query, bgp, rdf_type_id, &out);
  return out;
}

void CanonicalizeTemplate(const sparql::ParsedQuery& query,
                          const sparql::EncodedBgp& bgp,
                          rdf::TermId rdf_type_id, CanonicalTemplate* result) {
  CanonicalTemplate& out = *result;
  out.cacheable = false;
  out.bypass_reason.clear();
  out.key.clear();
  out.hash = 0;
  out.canon_to_instance.clear();
  out.instance_to_canon.clear();
  out.var_canon_to_instance.clear();
  out.var_instance_to_canon.clear();
  out.num_params = 0;
  const size_t n = bgp.patterns.size();
  if (n == 0) {
    out.bypass_reason = "empty-bgp";
    return;
  }
  for (const auto& tp : bgp.patterns) {
    if (tp.HasMissingConstant()) {
      // Estimates for missing constants are value-sensitive (they collapse
      // to zero); the static checker short-circuits these queries anyway.
      out.bypass_reason = "missing-constant";
      return;
    }
  }

  // --- Classify every slot: variable, concrete constant, or parameter. ---
  Scratch& sc = GetScratch();
  const size_t num_vars = bgp.var_names.size();
  // term id -> class, by linear scan: queries carry a handful of constants.
  std::vector<uint32_t>& param_ids = sc.param_ids;
  param_ids.clear();
  auto ParamClassOf = [&](uint32_t term_id) {
    for (uint32_t c = 0; c < param_ids.size(); ++c) {
      if (param_ids[c] == term_id) return c;
    }
    param_ids.push_back(term_id);
    return static_cast<uint32_t>(param_ids.size() - 1);
  };
  std::vector<std::array<Slot, 3>>& slots = sc.slots;
  slots.assign(n, {});
  for (size_t i = 0; i < n; ++i) {
    const auto& tp = bgp.patterns[i];
    const sparql::EncodedTerm terms[3] = {tp.s, tp.p, tp.o};
    for (int pos = 0; pos < 3; ++pos) {
      const auto& t = terms[pos];
      Slot& slot = slots[i][pos];
      if (t.is_var()) {
        slot = {SlotClass::kVar, t.id, 0};
        continue;
      }
      const bool is_predicate = pos == 1;
      const bool is_type_object =
          pos == 2 && tp.p.is_bound() && rdf_type_id != rdf::kInvalidTermId &&
          tp.p.id == rdf_type_id;
      if (is_predicate || is_type_object) {
        slot = {SlotClass::kConcrete, 0, t.id};
      } else {
        slot = {SlotClass::kParam, ParamClassOf(t.id), 0};
      }
    }
  }
  const size_t num_params = param_ids.size();

  // --- A shape this thread canonicalized before is copied from the memo;
  // the copy reuses `out`'s buffers. ---
  const bool memoize =
      SurfaceSignature(query, bgp, rdf_type_id, slots, &sc.surface);
  if (memoize) {
    const auto hit = sc.memo.find(sc.surface);
    if (hit != sc.memo.end()) {
      out = hit->second;
      return;
    }
  }

  // --- Structural signature per pattern (color-independent part). ---
  std::vector<uint64_t>& sig = sc.sig;
  sig.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = kFnvOffset;
    for (int pos = 0; pos < 3; ++pos) {
      const Slot& s = slots[i][pos];
      h = Mix(h, static_cast<uint64_t>(s.cls));
      if (s.cls == SlotClass::kConcrete) h = Mix(h, s.concrete);
    }
    sig[i] = h;
  }

  // --- Seed variable colors with their roles outside the BGP so that
  // projection / ORDER BY / FILTER usage distinguishes otherwise-symmetric
  // variables (and so stays stable under renaming). ---

  std::vector<uint64_t>& vcol = sc.vcol;
  vcol.assign(num_vars, Mix(kFnvOffset, 1));
  if (!query.select_all && !query.count_aggregate) {
    for (size_t pi = 0; pi < query.projection.size(); ++pi) {
      int v = bgp.FindVar(query.projection[pi].name);
      if (v >= 0) vcol[v] = Mix(vcol[v], 0x70 + pi);
    }
  }
  if (query.order_by) {
    int v = bgp.FindVar(query.order_by->var.name);
    if (v >= 0) vcol[v] = Mix(vcol[v], query.order_by->descending ? 0x0d : 0x0a);
  }
  for (const auto& f : query.filters) {
    // A filter's shape (operator + the concrete constant on the other
    // side) seeds the colors of the variables it mentions.
    uint64_t fsig = Mix(kFnvOffset, static_cast<uint64_t>(f.op));
    const sparql::PatternTerm* operands[2] = {&f.lhs, &f.rhs};
    for (int side = 0; side < 2; ++side) {
      if (sparql::IsVar(*operands[side])) continue;
      sc.term.clear();
      sparql::AsTerm(*operands[side]).AppendNTriples(&sc.term);
      fsig = Mix(fsig, HashBytes(sc.term));
    }
    for (int side = 0; side < 2; ++side) {
      if (!sparql::IsVar(*operands[side])) continue;
      int v = bgp.FindVar(sparql::AsVar(*operands[side]).name);
      if (v >= 0) vcol[v] = Mix(Mix(vcol[v], fsig), 0x40 + side);
    }
  }
  std::vector<uint64_t>& pcol = sc.pcol;
  pcol.assign(num_params, Mix(kFnvOffset, 2));

  // --- WL color refinement: pattern colors from slot colors, then slot
  // node colors from the *multiset* of incident pattern colors
  // (accumulated as a commutative sum of mixed contributions — order of
  // accumulation cannot matter, so no per-round sort or allocation).
  // Converges to an input-order-independent coloring for every BGP whose
  // structure distinguishes its patterns; genuinely automorphic patterns
  // keep equal colors (any tie-break yields the same canonical string). ---
  std::vector<uint64_t>& pat_color = sc.pat_color;
  pat_color.assign(n, 0);
  auto ComputePatternColors = [&]() {
    for (size_t i = 0; i < n; ++i) {
      uint64_t h = sig[i];
      for (int pos = 0; pos < 3; ++pos) {
        const Slot& s = slots[i][pos];
        switch (s.cls) {
          case SlotClass::kVar: h = Mix(h, vcol[s.node]); break;
          case SlotClass::kParam: h = Mix(h, pcol[s.node]); break;
          case SlotClass::kConcrete: h = Mix(h, Mix(0x9e3779b9, s.concrete));
        }
      }
      pat_color[i] = h;
    }
  };
  const size_t rounds = std::min<size_t>(n + 2, 12);
  std::vector<uint64_t>& vacc = sc.vacc;
  std::vector<uint64_t>& pacc = sc.pacc;
  vacc.resize(num_vars);
  pacc.resize(num_params);
  // Refinement only ever splits color classes (equal new colors require
  // equal old colors and equal neighborhoods), so an unchanged number of
  // distinct node colors means the partition reached its fixpoint and
  // further rounds cannot refine it. The distinct count is a property of
  // the color multiset, which is input-order independent, so the early
  // exit fires on the same round for every instance of a template.
  auto DistinctColors = [&]() {
    std::vector<uint64_t>& all = sc.color_scratch;
    all.assign(vcol.begin(), vcol.end());
    all.insert(all.end(), pcol.begin(), pcol.end());
    std::sort(all.begin(), all.end());
    return static_cast<size_t>(
        std::unique(all.begin(), all.end()) - all.begin());
  };
  size_t prev_distinct = 0;
  for (size_t round = 0; round < rounds; ++round) {
    ComputePatternColors();
    std::fill(vacc.begin(), vacc.end(), 0);
    std::fill(pacc.begin(), pacc.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      for (int pos = 0; pos < 3; ++pos) {
        const Slot& s = slots[i][pos];
        if (s.cls == SlotClass::kConcrete) continue;
        const uint64_t contrib =
            Mix64(pat_color[i] ^ (0x9e3779b97f4a7c15ull * (pos + 1)));
        if (s.cls == SlotClass::kVar) {
          vacc[s.node] += contrib;
        } else {
          pacc[s.node] += contrib;
        }
      }
    }
    for (size_t v = 0; v < num_vars; ++v) vcol[v] = Mix(vcol[v], vacc[v]);
    for (size_t p = 0; p < num_params; ++p) pcol[p] = Mix(pcol[p], pacc[p]);
    const size_t distinct = DistinctColors();
    if (round > 0 && distinct == prev_distinct) break;
    prev_distinct = distinct;
  }
  ComputePatternColors();

  // --- Order patterns by refined color; ties keep input order (only
  // automorphic or WL-indistinguishable patterns tie). ---
  std::vector<uint32_t>& perm = sc.perm;
  perm.resize(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return pat_color[a] != pat_color[b] ? pat_color[a] < pat_color[b]
                                        : sig[a] < sig[b];
  });

  // --- Stabilize against the exact alpha-renamed form: assign canonical
  // ids by first occurrence in the current order, re-sort by the exact
  // labeled patterns, repeat to a fixpoint. ---
  constexpr uint32_t kUnassigned = 0xffffffffu;
  std::vector<uint32_t>& vcanon = sc.vcanon;
  std::vector<uint32_t>& pcanon = sc.pcanon;
  vcanon.assign(num_vars, kUnassigned);
  pcanon.assign(num_params, kUnassigned);
  auto AssignIds = [&]() {
    std::fill(vcanon.begin(), vcanon.end(), kUnassigned);
    std::fill(pcanon.begin(), pcanon.end(), kUnassigned);
    uint32_t next_v = 0, next_p = 0;
    for (uint32_t pi : perm) {
      for (int pos = 0; pos < 3; ++pos) {
        const Slot& s = slots[pi][pos];
        if (s.cls == SlotClass::kVar && vcanon[s.node] == kUnassigned)
          vcanon[s.node] = next_v++;
        if (s.cls == SlotClass::kParam && pcanon[s.node] == kUnassigned)
          pcanon[s.node] = next_p++;
      }
    }
  };
  using ExactKey = std::array<uint64_t, 6>;
  auto ExactOf = [&](uint32_t pi) {
    ExactKey k{};
    for (int pos = 0; pos < 3; ++pos) {
      const Slot& s = slots[pi][pos];
      k[2 * pos] = static_cast<uint64_t>(s.cls);
      switch (s.cls) {
        case SlotClass::kVar: k[2 * pos + 1] = vcanon[s.node]; break;
        case SlotClass::kParam: k[2 * pos + 1] = pcanon[s.node]; break;
        case SlotClass::kConcrete: k[2 * pos + 1] = s.concrete; break;
      }
    }
    return k;
  };
  std::vector<ExactKey>& exact = sc.exact;
  std::vector<uint32_t>& prev = sc.prev;
  exact.resize(n);
  prev.resize(n);
  for (size_t round = 0; round < n + 2; ++round) {
    AssignIds();
    for (size_t i = 0; i < n; ++i) exact[i] = ExactOf(static_cast<uint32_t>(i));
    prev = perm;
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      return exact[a] < exact[b];
    });
    if (perm == prev) break;
  }
  AssignIds();

  // --- Render the key, straight into the caller's (reused) string.
  // Offset/limit are deliberately excluded: they do not affect the logical
  // plan, the physical plan before the engine's per-instance ASK/LIMIT
  // pipelining downgrade, or the verdict. ---
  std::string& key = out.key;
  key.reserve(64 + 24 * n);
  key += query.is_ask ? "ask" : query.count_aggregate ? "count" : "sel";
  if (query.distinct) key += ",distinct";
  key += ";proj=";
  // A variable absent from the BGP (always unbound) keeps its name.
  auto AppendVarByName = [&](std::string* to, const std::string& name) {
    int v = bgp.FindVar(name);
    if (v >= 0) {
      *to += 'v';
      AppendUint(to, vcanon[v]);
    } else {
      *to += "u:";
      *to += name;
    }
  };
  if (query.select_all || query.count_aggregate) {
    key += '*';
  } else {
    for (size_t pi = 0; pi < query.projection.size(); ++pi) {
      if (pi) key += ',';
      AppendVarByName(&key, query.projection[pi].name);
    }
  }
  key += ";bgp=";
  for (uint32_t pi : perm) {
    key += '(';
    for (int pos = 0; pos < 3; ++pos) {
      if (pos) key += ' ';
      const Slot& s = slots[pi][pos];
      switch (s.cls) {
        case SlotClass::kVar:
          key += 'v';
          AppendUint(&key, vcanon[s.node]);
          break;
        case SlotClass::kParam:
          key += 'p';
          AppendUint(&key, pcanon[s.node]);
          break;
        case SlotClass::kConcrete:
          key += 'c';
          AppendUint(&key, s.concrete);
          break;
      }
    }
    key += ')';
  }
  if (!query.filters.empty()) {
    const size_t nf = query.filters.size();
    std::vector<std::string>& rendered = sc.filters;
    if (rendered.size() < nf) rendered.resize(nf);
    for (size_t fi = 0; fi < nf; ++fi) {
      const auto& f = query.filters[fi];
      std::string& fs = rendered[fi];
      fs = "f(";
      const sparql::PatternTerm* operands[2] = {&f.lhs, &f.rhs};
      for (int side = 0; side < 2; ++side) {
        if (side) {
          fs += ' ';
          fs += sparql::CompareOpName(f.op);
          fs += ' ';
        }
        if (sparql::IsVar(*operands[side])) {
          AppendVarByName(&fs, sparql::AsVar(*operands[side]).name);
        } else {
          sparql::AsTerm(*operands[side]).AppendNTriples(&fs);
        }
      }
      fs += ')';
    }
    std::sort(rendered.begin(), rendered.begin() + nf);
    key += ";filters=";
    for (size_t fi = 0; fi < nf; ++fi) key += rendered[fi];
  }
  if (query.order_by) {
    key += ";ord=";
    AppendVarByName(&key, query.order_by->var.name);
    key += query.order_by->descending ? ":desc" : ":asc";
  }

  out.cacheable = true;
  out.hash = HashBytes(out.key);
  out.canon_to_instance.assign(perm.begin(), perm.end());
  out.instance_to_canon.assign(n, 0);
  for (uint32_t c = 0; c < n; ++c) out.instance_to_canon[perm[c]] = c;
  out.var_canon_to_instance.assign(num_vars, 0);
  out.var_instance_to_canon.assign(num_vars, 0);
  for (size_t v = 0; v < num_vars; ++v) {
    out.var_instance_to_canon[v] = vcanon[v];
    out.var_canon_to_instance[vcanon[v]] = static_cast<sparql::VarId>(v);
  }
  out.num_params = static_cast<uint32_t>(num_params);
  if (memoize) {
    if (sc.memo.size() >= kMemoEntries) sc.memo.clear();
    sc.memo.emplace(sc.surface, out);
  }
}

}  // namespace shapestats::cache
