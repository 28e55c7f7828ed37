// Term dictionary: bidirectional mapping between RDF terms and dense
// TermIds. The whole pipeline (store, SPARQL encoding, statistics,
// execution) works on TermIds; strings only appear at parse/print time.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "util/string_util.h"

namespace shapestats::rdf {

/// Interning dictionary. Ids are assigned densely starting at 1
/// (kInvalidTermId = 0 is never assigned). Not thread-safe for writes.
class TermDictionary {
 public:
  TermDictionary();

  /// Interns a term, returning its id (existing or fresh).
  TermId Intern(const Term& term);

  /// Convenience: interns an IRI given its string.
  TermId InternIri(std::string_view iri);

  /// Convenience: interns a plain string literal.
  TermId InternLiteral(std::string_view value);

  /// Looks up an already-interned term; nullopt if absent.
  std::optional<TermId> Find(const Term& term) const;
  std::optional<TermId> FindIri(std::string_view iri) const;

  /// Looks up a canonical N-Triples key (Term::ToNTriples) as given, without
  /// parsing or building a string; nullopt if no term has exactly this key.
  std::optional<TermId> FindKey(std::string_view key) const;

  /// Decodes an id back to the term. Id must be valid.
  const Term& term(TermId id) const { return terms_[id]; }

  /// Number of interned terms (excluding the invalid slot).
  size_t size() const { return terms_.size() - 1; }

  /// Canonical N-Triples rendering of a term id.
  std::string ToNTriples(TermId id) const { return term(id).ToNTriples(); }

  /// Short human-readable rendering (IRI local name / literal value).
  std::string Pretty(TermId id) const;

 private:
  // key: canonical NT form; FindKey probes it with a view into the input.
  StringMap<TermId> index_;
  std::vector<Term> terms_;  // terms_[0] is a dummy
};

}  // namespace shapestats::rdf
