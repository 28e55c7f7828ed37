#include "rdf/term.h"

#include "rdf/vocab.h"
#include "util/string_util.h"

namespace shapestats::rdf {

Term Term::IntLiteral(int64_t v) {
  return Literal(std::to_string(v), std::string(vocab::kXsdInteger), "");
}

std::string Term::ToNTriples() const {
  std::string out;
  // One allocation: brackets, quotes, "^^<" and ">" add at most 6 bytes
  // (literal escapes may still grow it).
  out.reserve(lexical.size() + datatype.size() + lang.size() + 6);
  AppendNTriples(&out);
  return out;
}

void Term::AppendNTriples(std::string* out) const {
  switch (kind) {
    case TermKind::kIri:
      out->push_back('<');
      out->append(lexical);
      out->push_back('>');
      return;
    case TermKind::kBlank:
      out->append("_:");
      out->append(lexical);
      return;
    case TermKind::kLiteral:
      out->push_back('"');
      out->append(EscapeLiteral(lexical));
      out->push_back('"');
      if (!lang.empty()) {
        out->push_back('@');
        out->append(lang);
      } else if (!datatype.empty() && datatype != vocab::kXsdString) {
        out->append("^^<");
        out->append(datatype);
        out->push_back('>');
      }
      return;
  }
}

namespace {

bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsAlnum(char c) { return IsAlpha(c) || (c >= '0' && c <= '9'); }

// A language tag as N-Triples spells it: [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*.
bool IsLangTag(std::string_view tag) {
  size_t i = 0;
  while (i < tag.size() && IsAlpha(tag[i])) ++i;
  if (i == 0) return false;
  while (i < tag.size()) {
    if (tag[i++] != '-') return false;
    const size_t start = i;
    while (i < tag.size() && IsAlnum(tag[i])) ++i;
    if (i == start) return false;
  }
  return true;
}

// The text of an IRI as N-Triples allows it without escapes: no byte <= 0x20
// and none of <>"{}|^`\.
bool IsIriText(std::string_view iri) {
  for (const char c : iri) {
    if (static_cast<unsigned char>(c) <= 0x20 ||
        std::string_view("<>\"{}|^`\\").find(c) != std::string_view::npos) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<Term> ParseTerm(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return Status::ParseError("empty term");
  if (text.front() == '<') {
    if (text.back() != '>') {
      return Status::ParseError("unterminated IRI: " + std::string(text));
    }
    return Term::Iri(std::string(text.substr(1, text.size() - 2)));
  }
  if (StartsWith(text, "_:")) {
    return Term::Blank(std::string(text.substr(2)));
  }
  if (text.front() == '"') {
    const size_t end = LiteralEnd(text);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated literal: " + std::string(text));
    }
    std::string value = UnescapeLiteral(text.substr(1, end - 1));
    std::string_view rest = text.substr(end + 1);
    if (rest.empty()) return Term::Literal(std::move(value));
    if (rest.front() == '@' && IsLangTag(rest.substr(1))) {
      return Term::Literal(std::move(value), "", std::string(rest.substr(1)));
    }
    if (StartsWith(rest, "^^<") && rest.back() == '>') {
      const std::string_view datatype = rest.substr(3, rest.size() - 4);
      if (IsIriText(datatype)) {
        return Term::Literal(std::move(value), std::string(datatype));
      }
    }
    return Status::ParseError("bad literal suffix: " + std::string(text));
  }
  return Status::ParseError("unrecognized term: " + std::string(text));
}

}  // namespace shapestats::rdf
