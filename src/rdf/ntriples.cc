#include "rdf/ntriples.h"

#include <algorithm>
#include <fstream>
#include <optional>

#include "util/string_util.h"

namespace shapestats::rdf {

namespace {

// End of the token that starts at line[i]: a quoted literal runs past its
// closing unescaped quote and then, like every other token, up to the next
// whitespace (so a datatype or language suffix stays attached).
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
  while (i < line.size() && !IsAsciiSpace(line[i])) ++i;
  return i;
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

}  // namespace

// Each token is first looked up by its raw text. A hit is exact: for every
// term t, ToNTriples(ParseTerm(ToNTriples(t))) == ToNTriples(t), so a token
// equal to a dictionary key parses to a term whose key is that key, and
// Intern(ParseTerm(token)) would return the same id. Only tokens that miss
// (new terms and non-canonical spellings such as an explicit ^^xsd:string)
// go through ParseTerm and Intern, which canonicalizes them.
Status ParseNTriples(std::string_view text, Graph* graph) {
  if (graph->finalized()) {
    return Status::InvalidArgument("graph already finalized");
  }
  TermDictionary& dict = graph->dict();
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
    std::optional<TermId> hit[3];
    std::optional<Term> parsed[3];
    TermKind kind[3];
    for (int k = 0; k < 3; ++k) {
      hit[k] = dict.FindKey(tok[k]);
      if (hit[k]) {
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
    TermId id[3];
    for (int k = 2; k >= 0; --k) id[k] = hit[k] ? *hit[k] : dict.Intern(*parsed[k]);
    graph->Add(id[0], id[1], id[2]);
  }
  return Status::OK();
}

Status LoadNTriplesFile(const std::string& path, Graph* graph) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseNTriples(*text, graph);
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
