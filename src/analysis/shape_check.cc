#include "analysis/shape_check.h"

#include <algorithm>
#include <set>
#include <utility>

#include "card/estimator.h"
#include "obs/metrics.h"

namespace shapestats::analysis {

namespace {

using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;
using sparql::VarId;

std::string PatternSubject(size_t index) {
  return "pattern " + std::to_string(index + 1);
}

std::string PairSubject(size_t i, size_t j) {
  return "patterns " + std::to_string(i + 1) + "," + std::to_string(j + 1);
}

/// Terms compare equal when they are the same variable or the same
/// dictionary constant (kMissing never keys a group).
bool SameTerm(const EncodedTerm& a, const EncodedTerm& b) {
  return a.kind == b.kind && a.id == b.id && !a.is_missing();
}

bool IsTypePredicate(const stats::GlobalStats& gs, const EncodedTerm& p) {
  return gs.rdf_type_id != rdf::kInvalidTermId && p.is_bound() &&
         p.id == gs.rdf_type_id;
}

/// True when the global statistics prove every typed entity carries exactly
/// one rdf:type triple — then distinct classes have disjoint instance sets.
bool SingleTypedData(const stats::GlobalStats& gs) {
  return gs.num_type_triples > 0 &&
         gs.num_type_triples == gs.num_type_subjects;
}

}  // namespace

const char* SatisfiabilityName(Satisfiability verdict) {
  switch (verdict) {
    case Satisfiability::kSatisfiable: return "satisfiable";
    case Satisfiability::kEmpty: return "empty";
    case Satisfiability::kEmptyByStats: return "empty-by-stats";
  }
  return "?";
}

std::unordered_map<VarId, rdf::TermId> ShapeCheckResult::InferredAnchors(
    const stats::GlobalStats& gs) const {
  std::unordered_map<VarId, rdf::TermId> anchors;
  for (const InferredConstraint& c : inferred) {
    if (c.class_id == rdf::kInvalidTermId) continue;
    auto it = anchors.find(c.var);
    if (it == anchors.end()) {
      anchors.emplace(c.var, c.class_id);
    } else if (gs.ClassCount(c.class_id) < gs.ClassCount(it->second)) {
      it->second = c.class_id;  // keep the most selective class
    }
  }
  return anchors;
}

ShapeCheckResult ShapeChecker::Check(const sparql::ParsedQuery& query,
                                     const EncodedBgp& bgp) const {
  static obs::Counter* runs =
      obs::MetricsRegistry::Global().GetCounter("static_check.runs");
  static obs::Counter* empty_verdicts =
      obs::MetricsRegistry::Global().GetCounter("static_check.empty");
  static obs::Counter* empty_by_stats_verdicts =
      obs::MetricsRegistry::Global().GetCounter("static_check.empty_by_stats");
  static obs::Counter* inferred_total =
      obs::MetricsRegistry::Global().GetCounter("static_check.inferred");

  ShapeCheckResult out;
  // kEmpty proofs outrank kEmptyByStats; the first proof at the winning
  // rank names the verdict's rule.
  auto prove = [&out](Satisfiability verdict, const char* rule) {
    if (verdict == Satisfiability::kEmpty) {
      if (out.verdict != Satisfiability::kEmpty) {
        out.verdict = verdict;
        out.rule = rule;
      }
    } else if (out.verdict == Satisfiability::kSatisfiable) {
      out.verdict = verdict;
      out.rule = rule;
    }
  };

  // --- per-pattern rules -------------------------------------------------
  for (size_t i = 0; i < bgp.patterns.size(); ++i) {
    const EncodedPattern& tp = bgp.patterns[i];
    if (tp.HasMissingConstant()) {
      out.diagnostics.push_back(
          {Severity::kWarning, "check.missing-constant", PatternSubject(i),
           "a constant is absent from the dataset dictionary; the pattern "
           "matches nothing"});
      prove(Satisfiability::kEmpty, "check.missing-constant");
      continue;  // further rules would restate the same emptiness
    }
    if (tp.p.is_bound() && !IsTypePredicate(gs_, tp.p)) {
      const rdf::TermView pred = dict_.term(tp.p.id);
      const bool in_data = gs_.Predicate(tp.p.id) != nullptr;
      const bool in_shapes =
          shapes_ != nullptr && pred.is_iri() &&
          !shapes_->CandidatesForPath(pred.lexical).empty();
      if (!in_data && !in_shapes) {
        out.diagnostics.push_back(
            {Severity::kWarning, "check.unknown-predicate", PatternSubject(i),
             "predicate " + dict_.Pretty(tp.p.id) +
                 " occurs in no triple and no property shape; the pattern "
                 "matches nothing"});
        prove(Satisfiability::kEmpty, "check.unknown-predicate");
      }
    }
    if (IsTypePredicate(gs_, tp.p) && tp.o.is_bound() &&
        gs_.ClassCount(tp.o.id) == 0) {
      out.diagnostics.push_back(
          {Severity::kWarning, "check.empty-class", PatternSubject(i),
           "class " + dict_.Pretty(tp.o.id) +
               " has a zero-count node shape (no instances); the pattern "
               "matches nothing"});
      prove(Satisfiability::kEmptyByStats, "check.empty-class");
    }
  }

  // --- class inference (Section 6.1 anchors for untyped variables) -------
  // Exactness condition: predicate p has exactly one candidate node shape C
  // and C's property shape accounts for every p-triple in the data — then
  // every p-subject is an instance of C, so an untyped subject variable of
  // a p-pattern provably ranges over C's instances.
  std::unordered_map<VarId, rdf::TermId> explicit_anchors =
      card::ComputeShapeAnchors(bgp, gs_);
  if (shapes_ != nullptr) {
    std::set<std::pair<VarId, rdf::TermId>> seen;
    for (const EncodedPattern& tp : bgp.patterns) {
      if (!tp.s.is_var() || !tp.p.is_bound() || IsTypePredicate(gs_, tp.p)) {
        continue;
      }
      if (explicit_anchors.count(tp.s.id) != 0) continue;
      const rdf::TermView pred = dict_.term(tp.p.id);
      if (!pred.is_iri()) continue;
      std::vector<const shacl::NodeShape*> candidates =
          shapes_->CandidatesForPath(pred.lexical);
      if (candidates.size() != 1) continue;
      const shacl::NodeShape* ns = candidates.front();
      const shacl::PropertyShape* psh = ns->FindProperty(pred.lexical);
      const stats::PredicateStats* gp = gs_.Predicate(tp.p.id);
      if (!ns->annotated() || psh == nullptr || !psh->annotated() ||
          gp == nullptr || gp->count == 0 || *psh->count != gp->count) {
        continue;
      }
      std::optional<rdf::TermId> class_id = dict_.FindIri(ns->target_class);
      if (!class_id.has_value()) continue;
      if (!seen.emplace(tp.s.id, *class_id).second) continue;
      out.inferred.push_back({tp.s.id, *class_id, ns->target_class,
                              std::string(pred.lexical)});
      out.diagnostics.push_back(
          {Severity::kInfo, "check.inferred-class",
           "?" + bgp.var_names[tp.s.id],
           "every subject of " + dict_.Pretty(tp.p.id) +
               " is an instance of " + ns->target_class +
               " (property shape covers all " +
               std::to_string(gp->count) +
               " occurrences); inferred sh:targetClass anchor"});
    }
  }
  std::unordered_map<VarId, rdf::TermId> anchors = explicit_anchors;
  for (const auto& [var, cls] : out.InferredAnchors(gs_)) {
    anchors.emplace(var, cls);
  }

  // --- pairwise rules ----------------------------------------------------
  // Variable occurrence counts, for the subsumption rule's "throwaway
  // variable" test.
  std::vector<uint32_t> var_uses(bgp.NumVars(), 0);
  for (const EncodedPattern& tp : bgp.patterns) {
    for (const EncodedTerm* t : {&tp.s, &tp.p, &tp.o}) {
      if (t->is_var()) ++var_uses[t->id];
    }
  }
  for (size_t i = 0; i < bgp.patterns.size(); ++i) {
    const EncodedPattern& a = bgp.patterns[i];
    for (size_t j = i + 1; j < bgp.patterns.size(); ++j) {
      const EncodedPattern& b = bgp.patterns[j];
      const bool same_subject = SameTerm(a.s, b.s);
      const bool same_predicate = SameTerm(a.p, b.p);
      if (same_subject && same_predicate && SameTerm(a.o, b.o)) {
        out.diagnostics.push_back(
            {Severity::kWarning, "check.duplicate-pattern", PairSubject(i, j),
             "identical triple patterns; the duplicate adds no constraint"});
        continue;
      }
      // Subsumption: b restates a's existence constraint when its object is
      // a variable used nowhere else (any solution of a extends to b).
      if (same_subject && same_predicate && b.o.is_var() &&
          var_uses[b.o.id] == 1) {
        out.diagnostics.push_back(
            {Severity::kWarning, "check.subsumed-pattern", PairSubject(i, j),
             "pattern " + std::to_string(j + 1) + " only restates pattern " +
                 std::to_string(i + 1) + "'s existence constraint (object ?" +
                 bgp.var_names[b.o.id] + " occurs nowhere else)"});
        continue;
      }
      if (same_subject && same_predicate && a.o.is_var() &&
          var_uses[a.o.id] == 1 && !b.o.is_var()) {
        out.diagnostics.push_back(
            {Severity::kWarning, "check.subsumed-pattern", PairSubject(i, j),
             "pattern " + std::to_string(i + 1) + " only restates pattern " +
                 std::to_string(j + 1) + "'s existence constraint (object ?" +
                 bgp.var_names[a.o.id] + " occurs nowhere else)"});
        continue;
      }
      if (!same_subject || !a.p.is_bound() || !same_predicate) continue;
      if (!a.o.is_bound() || !b.o.is_bound() || a.o.id == b.o.id) continue;
      if (IsTypePredicate(gs_, a.p)) {
        // Two distinct classes for one subject: provably empty when the
        // data is single-typed (instance sets of distinct classes are
        // disjoint). Zero-count classes already fired check.empty-class.
        if (SingleTypedData(gs_)) {
          out.diagnostics.push_back(
              {Severity::kWarning, "check.disjoint-classes", PairSubject(i, j),
               "subject is typed both " + dict_.Pretty(a.o.id) + " and " +
                   dict_.Pretty(b.o.id) +
                   "; every typed entity has exactly one type, so the "
                   "classes are disjoint"});
          prove(Satisfiability::kEmptyByStats, "check.disjoint-classes");
        }
        continue;
      }
      // Distinct constant objects through a max-count-1 path. Global proof:
      // count == DSC means every subject has exactly one such triple.
      // Shape proof: the subject variable is anchored (explicitly or by
      // inference) to a class whose property shape observed maxCount 1.
      const stats::PredicateStats* gp = gs_.Predicate(a.p.id);
      bool max_one = gp != nullptr && gp->count == gp->dsc;
      std::string source = "every subject has exactly one " +
                           dict_.Pretty(a.p.id) + " triple (count = DSC)";
      if (!max_one && shapes_ != nullptr && a.s.is_var()) {
        auto anchor = anchors.find(a.s.id);
        if (anchor != anchors.end()) {
          const rdf::TermView cls = dict_.term(anchor->second);
          const shacl::NodeShape* ns =
              cls.is_iri() ? shapes_->FindByClass(cls.lexical) : nullptr;
          const rdf::TermView pred = dict_.term(a.p.id);
          const shacl::PropertyShape* psh =
              ns != nullptr && pred.is_iri() ? ns->FindProperty(pred.lexical)
                                            : nullptr;
          if (psh != nullptr && psh->max_count.has_value() &&
              *psh->max_count == 1) {
            max_one = true;
            source = "shape " + std::string(cls.lexical) +
                     " observed sh:maxCount 1 for " + dict_.Pretty(a.p.id);
          }
        }
      }
      if (max_one) {
        out.diagnostics.push_back(
            {Severity::kWarning, "check.max-count-conflict", PairSubject(i, j),
             "patterns force two distinct objects (" + dict_.Pretty(a.o.id) +
                 ", " + dict_.Pretty(b.o.id) + ") through a max-count-1 path: " +
                 source});
        prove(Satisfiability::kEmptyByStats, "check.max-count-conflict");
      }
    }
  }

  // --- filter rules ------------------------------------------------------
  // FILTER(?x op ?x): contradiction for !=, <, > (no binding passes) and a
  // tautology for =, <=, >=. Only claimed when the variable is bound by the
  // BGP — otherwise execution fails with an error, not an empty result.
  for (const sparql::FilterComparison& f : query.filters) {
    if (!sparql::IsVar(f.lhs) || !sparql::IsVar(f.rhs)) continue;
    const std::string& name = sparql::AsVar(f.lhs).name;
    if (name != sparql::AsVar(f.rhs).name) continue;
    if (std::find(bgp.var_names.begin(), bgp.var_names.end(), name) ==
        bgp.var_names.end()) {
      continue;
    }
    const bool contradiction = f.op == sparql::CompareOp::kNe ||
                               f.op == sparql::CompareOp::kLt ||
                               f.op == sparql::CompareOp::kGt;
    if (contradiction) {
      out.diagnostics.push_back(
          {Severity::kWarning, "check.filter-contradiction", "?" + name,
           std::string("FILTER(?") + name + " " +
               sparql::CompareOpName(f.op) + " ?" + name +
               ") rejects every binding"});
      prove(Satisfiability::kEmpty, "check.filter-contradiction");
    } else {
      out.diagnostics.push_back(
          {Severity::kInfo, "check.filter-tautology", "?" + name,
           std::string("FILTER(?") + name + " " +
               sparql::CompareOpName(f.op) + " ?" + name +
               ") accepts every binding and can be dropped"});
    }
  }

  runs->Add();
  if (out.verdict == Satisfiability::kEmpty) empty_verdicts->Add();
  if (out.verdict == Satisfiability::kEmptyByStats) {
    empty_by_stats_verdicts->Add();
  }
  if (!out.inferred.empty()) inferred_total->Add(out.inferred.size());
  return out;
}

}  // namespace shapestats::analysis
