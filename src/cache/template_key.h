// BGP template canonicalization: the cache key of the plan cache.
//
// Two queries share a template when they are identical up to (a) variable
// renaming, (b) triple-pattern order, and (c) the *values* of parameterized
// constants. The canonical form alpha-renames variables, sorts patterns
// into a structure-determined order (WL-style color refinement over the
// query's variable/constant incidence graph), and replaces parameterizable
// constants with placeholder ids that preserve equality classes (two
// occurrences of the same constant share a placeholder; distinct constants
// get distinct placeholders).
//
// What stays concrete — and why the key is sound for plan reuse:
//
//   * predicate constants        Table-1 estimates read per-predicate
//                                statistics (cnt/DSC/DOC);
//   * rdf:type object constants  class counts and shape anchors are read
//                                from the class term;
//   * FILTER constants           the static checker's filter-contradiction
//                                rule and filter evaluation are
//                                value-sensitive;
//
// every other bound subject/object only selects *which* rows match, never
// which statistics feed the estimate (card::CardinalityEstimator's Table-1
// formulas are value-independent given the bound-position structure), so
// two instances of one template provably receive the same join order,
// operator assignment, and satisfiability verdict. Queries containing
// constants absent from the dictionary (kMissing terms) are not cacheable:
// their estimates collapse to zero and the static checker short-circuits
// them anyway.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/encoded_bgp.h"
#include "sparql/query.h"

namespace shapestats::cache {

/// Canonical form of one query plus the maps that carry cached plans back
/// into instance space.
struct CanonicalTemplate {
  /// False when the query must bypass the cache (empty BGP, missing
  /// constants); `bypass_reason` says why.
  bool cacheable = false;
  std::string bypass_reason;

  /// Canonical text form — the cache key. Readable for debugging; hashed
  /// for metrics/events.
  std::string key;
  /// FNV-1a of `key` (the template id reported in EXPLAIN and events).
  uint64_t hash = 0;

  /// canonical pattern position -> index into the instance BGP's patterns.
  std::vector<uint32_t> canon_to_instance;
  /// instance pattern index -> canonical position (inverse of the above).
  std::vector<uint32_t> instance_to_canon;
  /// canonical var id -> instance VarId.
  std::vector<sparql::VarId> var_canon_to_instance;
  /// instance VarId -> canonical var id.
  std::vector<sparql::VarId> var_instance_to_canon;
  /// Number of parameter placeholders (distinct parameterized constants).
  uint32_t num_params = 0;

  /// Short hex id for logs/EXPLAIN ("t:a1b2c3d4e5f67890").
  std::string ShortId() const;
};

/// Canonicalizes `query`/`bgp` (the encoding of `query`). `rdf_type_id` is
/// GlobalStats::rdf_type_id (kInvalidTermId when the data has no rdf:type
/// triples); objects of that predicate stay concrete in the key.
///
/// Each thread keeps a bounded memo from a query's surface signature (the
/// classified pattern slots in input order, the query form, projection,
/// ORDER BY and variable-only FILTERs) to its canonical form, so the
/// refinement runs once per shape; a hit needs the whole signature equal.
/// Queries whose FILTERs carry constants, and queries whose signature is
/// longer than 1 KiB (a SELECT * of more than 66 patterns), are
/// canonicalized afresh.
CanonicalTemplate CanonicalizeTemplate(const sparql::ParsedQuery& query,
                                       const sparql::EncodedBgp& bgp,
                                       rdf::TermId rdf_type_id);

/// The same, written into `out`: its key string and index vectors keep
/// their capacity, so a template reused across queries canonicalizes
/// without allocating.
void CanonicalizeTemplate(const sparql::ParsedQuery& query,
                          const sparql::EncodedBgp& bgp,
                          rdf::TermId rdf_type_id, CanonicalTemplate* out);

/// Number of canonical forms memoized on the calling thread (at most 1024).
size_t MemoizedTemplates();

}  // namespace shapestats::cache
