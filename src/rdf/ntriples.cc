#include "rdf/ntriples.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>

#include "rdf/vocab.h"
#include "util/file_view.h"
#include "util/string_util.h"

namespace shapestats::rdf {

namespace {

// The first byte <= 0x20 (space, tab, CR or another control byte) in
// [p, end), or end. Eight bytes at a time on little-endian hosts: in
// (w - 0x2121...21) & ~w & 0x8080...80 the lowest set bit marks the first
// byte below 0x21 (bits above it may come from a borrow and are not read).
const char* FindSpaceOrControl(const char* p, const char* end) {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr uint64_t kOnes = 0x0101010101010101ULL;
    for (; end - p >= 8; p += 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      const uint64_t below = (w - kOnes * 0x21) & ~w & (kOnes * 0x80);
      if (below != 0) return p + std::countr_zero(below) / 8;
    }
  }
  while (p < end && static_cast<unsigned char>(*p) > 0x20) ++p;
  return p;
}

// End of the token that starts at line[i]: a quoted literal runs past its
// closing unescaped quote and then, like every other token, up to the next
// whitespace (so a datatype or language suffix stays attached). Every
// whitespace byte is <= 0x20, so the scan skips the bytes above it a word at a
// time and tests only the bytes <= 0x20 it stops at.
size_t TokenEnd(std::string_view line, size_t i) {
  if (line[i] == '"') {
    ++i;
    while (i < line.size()) {
      if (line[i] == '\\') {
        i += 2;
        continue;
      }
      if (line[i] == '"') {
        ++i;
        break;
      }
      ++i;
    }
    i = std::min(i, line.size());
  }
  const char* const end = line.data() + line.size();
  for (const char* p = line.data() + i;; ++p) {
    p = FindSpaceOrControl(p, end);
    if (p == end || IsAsciiSpace(*p)) return p - line.data();
  }
}

// Splits the body of a triple line (trimmed, terminating '.' removed) into
// subject, predicate and object text. The object is the remainder of the
// line, so it may contain spaces even outside a literal's quotes.
// False if fewer than three tokens are present.
bool SplitTriple(std::string_view body, std::string_view tok[3]) {
  size_t i = 0;
  for (int k = 0; k < 3; ++k) {
    while (i < body.size() && IsAsciiSpace(body[i])) ++i;
    if (i >= body.size()) return false;
    const size_t end = k < 2 ? TokenEnd(body, i) : body.size();
    tok[k] = body.substr(i, end - i);
    i = end;
  }
  return true;
}

// The kind of the term whose canonical key is `key` (Term::ToNTriples).
TermKind KindOfKey(std::string_view key) {
  if (key.front() == '<') return TermKind::kIri;
  return key.front() == '"' ? TermKind::kLiteral : TermKind::kBlank;
}

// True when `term`, parsed from `token`, serializes back to exactly `token`,
// so the token's bytes are its key. IRIs and blank nodes always do. A
// literal does when nothing in it is escaped or would be (no backslash, tab
// or CR; a quote inside is always escaped) and its suffix survives: a
// non-empty language tag, a datatype other than xsd:string, or no suffix at
// all (which a bare "@" or "^^<>" would lose).
bool IsCanonical(std::string_view token, const Term& term) {
  if (!term.is_literal()) return true;
  if (token.find_first_of("\\\t\r") != std::string_view::npos) return false;
  if (!term.lang.empty()) return true;
  if (term.datatype.empty()) return token.back() == '"';
  return term.datatype != vocab::kXsdString;
}

}  // namespace

// Each token is first looked up by its raw text. A hit is exact: for every
// term t, ToNTriples(ParseTerm(ToNTriples(t))) == ToNTriples(t), so a token
// equal to a dictionary key parses to a term whose key is that key, and
// Intern(ParseTerm(token)) would return the same id. A miss runs ParseTerm;
// a canonical token is then interned from its own bytes (InternKey), and any
// other spelling (an explicit ^^xsd:string, an escape, a raw tab in quotes)
// through Intern, which canonicalizes it. A subject spelled like the
// previous triple's subject reuses its id.
Status ParseNTriples(std::string_view text, Graph* graph) {
  if (graph->finalized()) {
    return Status::InvalidArgument("graph already finalized");
  }
  TermDictionary& dict = graph->dict();
  std::string_view prev_subject;  // empty, so no token equals it until set
  TermId prev_subject_id = kInvalidTermId;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = Trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    auto error = [&](std::string_view message) {
      return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                std::string(message));
    };
    if (line.back() != '.') {
      return error("missing terminating '.': " + std::string(line));
    }
    std::string_view tok[3];
    if (!SplitTriple(Trim(line.substr(0, line.size() - 1)), tok)) {
      return error("truncated triple");
    }

    // Resolve subject, predicate, object; validate; only then intern, so a
    // rejected line adds nothing to the dictionary.
    TermId id[3] = {};
    std::optional<Term> parsed[3];
    TermKind kind[3] = {};
    for (int k = 0; k < 3; ++k) {
      if (k == 0 && tok[0] == prev_subject) {
        id[0] = prev_subject_id;
        kind[0] = KindOfKey(tok[0]);
        continue;
      }
      if (std::optional<TermId> hit = dict.FindKey(tok[k])) {
        id[k] = *hit;
        kind[k] = KindOfKey(tok[k]);
        continue;
      }
      Result<Term> term = ParseTerm(tok[k]);
      if (!term.ok()) return error(term.status().message());
      kind[k] = term->kind;
      parsed[k] = std::move(*term);
    }
    if (kind[1] != TermKind::kIri) return error("predicate must be an IRI");
    if (kind[0] == TermKind::kLiteral) {
      return error("subject must not be a literal");
    }
    // Object, predicate, subject: the order Graph::Add(const Term&, ...) uses.
    for (int k = 2; k >= 0; --k) {
      if (!parsed[k]) continue;
      id[k] = IsCanonical(tok[k], *parsed[k])
                  ? dict.InternKey(tok[k], std::move(*parsed[k]))
                  : dict.Intern(*parsed[k]);
    }
    graph->Add(id[0], id[1], id[2]);
    prev_subject = tok[0];
    prev_subject_id = id[0];
  }
  return Status::OK();
}

Status LoadNTriplesFile(const std::string& path, Graph* graph) {
  Result<FileView> file = FileView::Open(path);
  if (!file.ok()) return file.status();
  return ParseNTriples(file->text(), graph);
}

std::string WriteNTriples(const Graph& graph) {
  std::string out;
  const auto& dict = graph.dict();
  for (const Triple& t : graph.triples()) {
    out += dict.ToNTriples(t.s);
    out += ' ';
    out += dict.ToNTriples(t.p);
    out += ' ';
    out += dict.ToNTriples(t.o);
    out += " .\n";
  }
  return out;
}

Status SaveNTriplesFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteNTriples(graph);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace shapestats::rdf
