// RDF term model: IRIs, blank nodes, and literals (Definition 3.1 of the
// paper). Terms are parsed once, interned into a TermDictionary, and flow
// through the rest of the system as 32-bit TermIds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace shapestats::rdf {

/// Dense identifier for an interned term. 0 is reserved as invalid.
using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = 0;

enum class TermKind : uint8_t {
  kIri = 0,
  kBlank = 1,
  kLiteral = 2,
};

/// A decoded RDF term. `lexical` holds the IRI string (without angle
/// brackets), the blank node label (without "_:"), or the literal value
/// (unescaped). `datatype`/`lang` are only meaningful for literals.
struct Term {
  TermKind kind = TermKind::kIri;
  std::string lexical;
  std::string datatype;  // empty = xsd:string / plain
  std::string lang;      // empty = no language tag

  static Term Iri(std::string iri) {
    return Term{TermKind::kIri, std::move(iri), "", ""};
  }
  static Term Blank(std::string label) {
    return Term{TermKind::kBlank, std::move(label), "", ""};
  }
  static Term Literal(std::string value, std::string datatype = "",
                      std::string lang = "") {
    return Term{TermKind::kLiteral, std::move(value), std::move(datatype),
                std::move(lang)};
  }
  /// Integer literal with xsd:integer datatype.
  static Term IntLiteral(int64_t v);

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_blank() const { return kind == TermKind::kBlank; }
  bool is_literal() const { return kind == TermKind::kLiteral; }

  /// Canonical N-Triples serialization; also the dictionary key.
  std::string ToNTriples() const;
  /// Appends ToNTriples() to `out`, reusing its capacity.
  void AppendNTriples(std::string* out) const;

  bool operator==(const Term& other) const {
    return kind == other.kind && lexical == other.lexical &&
           datatype == other.datatype && lang == other.lang;
  }
};

/// Parses one N-Triples term ("<iri>", "_:label", or a literal).
Result<Term> ParseTerm(std::string_view text);

}  // namespace shapestats::rdf
