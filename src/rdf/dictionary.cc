#include "rdf/dictionary.h"

namespace shapestats::rdf {

TermDictionary::TermDictionary() {
  terms_.emplace_back();  // slot 0: invalid
}

TermId TermDictionary::Intern(const Term& term) {
  std::string key = term.ToNTriples();
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  terms_.push_back(term);
  index_.emplace(std::move(key), id);
  return id;
}

TermId TermDictionary::InternIri(std::string_view iri) {
  return Intern(Term::Iri(std::string(iri)));
}

TermId TermDictionary::InternLiteral(std::string_view value) {
  return Intern(Term::Literal(std::string(value)));
}

std::optional<TermId> TermDictionary::Find(const Term& term) const {
  return FindKey(term.ToNTriples());
}

std::optional<TermId> TermDictionary::FindKey(std::string_view key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<TermId> TermDictionary::FindIri(std::string_view iri) const {
  return Find(Term::Iri(std::string(iri)));
}

std::string TermDictionary::Pretty(TermId id) const {
  const Term& t = term(id);
  if (t.is_iri()) {
    size_t cut = t.lexical.find_last_of("#/");
    return cut == std::string::npos ? t.lexical : t.lexical.substr(cut + 1);
  }
  if (t.is_blank()) return "_:" + t.lexical;
  return t.lexical;
}

}  // namespace shapestats::rdf
