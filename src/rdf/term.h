// RDF term model: IRIs, blank nodes, and literals (Definition 3.1 of the
// paper). Terms are parsed once, interned into a TermDictionary, and flow
// through the rest of the system as 32-bit TermIds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "rdf/vocab.h"
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

/// A term read in place: `lexical`, `datatype` and `lang` mean what they
/// mean in Term, but view storage owned by someone else (the dictionary's
/// key arena, or a Term). The datatype is empty for xsd:string and for a
/// literal with a language tag, as in the term's key.
struct TermView {
  TermKind kind = TermKind::kIri;
  std::string_view lexical;
  std::string_view datatype;  // empty = xsd:string / plain
  std::string_view lang;      // empty = no language tag

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_blank() const { return kind == TermKind::kBlank; }
  bool is_literal() const { return kind == TermKind::kLiteral; }

  bool operator==(const TermView& other) const = default;
};

/// A decoded RDF term, owning its text: what ParseTerm returns and what a
/// query constant is. `lexical` holds the IRI string (without angle
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

  /// The term as its key reads: no datatype when it is xsd:string or the
  /// term has a language tag. Valid while the term is neither changed nor
  /// destroyed.
  TermView view() const {
    const bool keyed_datatype = lang.empty() && datatype != vocab::kXsdString;
    return {kind, lexical, keyed_datatype ? std::string_view(datatype) : "", lang};
  }

  /// Canonical N-Triples serialization; also the dictionary key.
  std::string ToNTriples() const;
  /// Appends ToNTriples() to `out`, reusing its capacity.
  void AppendNTriples(std::string* out) const;

  bool operator==(const Term& other) const {
    return kind == other.kind && lexical == other.lexical &&
           datatype == other.datatype && lang == other.lang;
  }
};

/// Parses one N-Triples term ("<iri>", "_:label", or a literal). A literal's
/// suffix is a language tag ([a-zA-Z]+ ('-' [a-zA-Z0-9]+)*) or a datatype
/// IRI with no byte <= 0x20 and none of <>"{}|^`\; any other suffix fails.
Result<Term> ParseTerm(std::string_view text);

/// The position in `text`, which starts with a quote, of the quote that
/// closes it: the first one no backslash escapes. npos if there is none.
inline size_t LiteralEnd(std::string_view text) {
  for (size_t i = 1; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
      continue;
    }
    if (text[i] == '"') return i;
  }
  return std::string_view::npos;
}

}  // namespace shapestats::rdf
