// ShapeChecker: static satisfiability analysis of a BGP against the
// dataset's dictionary, global statistics, and annotated SHACL shapes —
// before any planning happens. The checker issues a *verdict*: a query
// proven empty is answered with zero rows in microseconds, skipping
// optimize + execute entirely (QueryEngine short-circuits kEmpty /
// kEmptyByStats verdicts). It owns every emptiness rule; QueryLint keeps
// only the Cartesian-product warning.
//
// Every emptiness rule is exact on the dataset the statistics were computed
// from — the property-test soundness oracle asserts that no non-satisfiable
// verdict ever contradicts real execution. Rule catalog:
//
//   check.missing-constant    a constant is absent from the dictionary; the
//                             pattern matches nothing            -> kEmpty
//   check.unknown-predicate   bound predicate with no triples    -> kEmpty
//   check.empty-class         rdf:type object names a class with zero
//                             instances (zero-count node shape)  -> kEmptyByStats
//   check.max-count-conflict  two patterns force distinct constant objects
//                             through a path with observed maxCount 1
//                             (globally, or under the subject's anchored /
//                             inferred node shape)               -> kEmptyByStats
//   check.disjoint-classes    one subject typed by two classes whose
//                             instance sets are provably disjoint (every
//                             typed entity has exactly one type) -> kEmptyByStats
//   check.filter-contradiction FILTER(?x != ?x) and friends      -> kEmpty
//   check.duplicate-pattern   a triple pattern is repeated verbatim
//                             (redundancy warning)
//   check.subsumed-pattern    a pattern restates another's existence
//                             constraint through a throwaway variable
//                             (redundancy warning)
//   check.filter-tautology    FILTER(?x = ?x) and friends (advisory)
//   check.inferred-class      an untyped subject variable provably ranges
//                             over one class's instances; the inferred
//                             sh:targetClass anchor is handed to the
//                             cardinality estimator for tighter SS plans
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.h"
#include "rdf/dictionary.h"
#include "shacl/shapes.h"
#include "sparql/encoded_bgp.h"
#include "sparql/query.h"
#include "stats/global_stats.h"

namespace shapestats::analysis {

/// The checker's verdict on one BGP.
enum class Satisfiability : uint8_t {
  kSatisfiable,   // no emptiness proof found (the common case)
  kEmpty,         // provably empty from the dictionary / data alone
  kEmptyByStats,  // provably empty from statistics (class counts, maxCount)
};

const char* SatisfiabilityName(Satisfiability verdict);

/// A proven class membership for an untyped subject variable: every
/// binding of `var` is an instance of `class_iri` (exactness condition:
/// the class's property shape for some predicate of `var` accounts for
/// every occurrence of that predicate in the data).
struct InferredConstraint {
  sparql::VarId var = 0;
  rdf::TermId class_id = rdf::kInvalidTermId;
  std::string class_iri;  // sh:targetClass of the proving node shape
  std::string reason;     // the predicate whose coverage proved membership
};

/// Verdict + findings + inferred constraints for one BGP.
struct ShapeCheckResult {
  Satisfiability verdict = Satisfiability::kSatisfiable;
  /// Rule id that decided a non-satisfiable verdict ("" when satisfiable).
  /// kEmpty proofs take precedence over kEmptyByStats ones.
  std::string rule;
  Diagnostics diagnostics;
  std::vector<InferredConstraint> inferred;

  bool provably_empty() const {
    return verdict != Satisfiability::kSatisfiable;
  }

  /// Inferred constraints as a subject-var -> class anchor map, the form
  /// the cardinality estimator consumes (card::AnchoredEstimator). When
  /// several predicates prove different classes for one variable, the most
  /// selective (smallest instance count) class wins.
  std::unordered_map<sparql::VarId, rdf::TermId> InferredAnchors(
      const stats::GlobalStats& gs) const;
};

/// Static semantic analyzer over (parsed query, encoded BGP). Stateless
/// apart from the borrowed statistics; cheap to construct per query.
class ShapeChecker {
 public:
  /// `shapes` may be null (global-statistics mode); shape-backed rules and
  /// class inference then stay silent and only exact global rules fire.
  ShapeChecker(const stats::GlobalStats& gs, const shacl::ShapesGraph* shapes,
               const rdf::TermDictionary& dict)
      : gs_(gs), shapes_(shapes), dict_(dict) {}

  /// Checks one query. Publishes static_check.runs / static_check.empty /
  /// static_check.empty_by_stats / static_check.inferred counters.
  ShapeCheckResult Check(const sparql::ParsedQuery& query,
                         const sparql::EncodedBgp& bgp) const;

 private:
  const stats::GlobalStats& gs_;
  const shacl::ShapesGraph* shapes_;
  const rdf::TermDictionary& dict_;
};

}  // namespace shapestats::analysis
