#include "sparql/parser.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "rdf/vocab.h"
#include "util/string_util.h"

namespace shapestats::sparql {

namespace {

struct Cursor {
  std::string_view text;
  size_t pos = 0;
  size_t line = 1;

  void SkipWs() {
    while (pos < text.size()) {
      char c = text[pos];
      if (c == '\n') {
        ++line;
        ++pos;
      } else if (IsAsciiSpace(c)) {
        ++pos;
      } else if (c == '#') {
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos >= text.size();
  }

  char Peek() {
    SkipWs();
    return pos < text.size() ? text[pos] : '\0';
  }

  bool ConsumeChar(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  /// Reads a bare word (letters/digits/_/-); empty if none.
  std::string PeekWord() {
    SkipWs();
    size_t i = pos;
    while (i < text.size() && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                               text[i] == '_' || text[i] == '-')) {
      ++i;
    }
    return std::string(text.substr(pos, i - pos));
  }

  void ConsumeWord(const std::string& w) { pos += w.size(); }

  /// Case-insensitive keyword match + consume.
  bool ConsumeKeyword(std::string_view kw) {
    std::string w = PeekWord();
    if (w.size() != kw.size()) return false;
    for (size_t i = 0; i < w.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(w[i])) !=
          std::toupper(static_cast<unsigned char>(kw[i]))) {
        return false;
      }
    }
    ConsumeWord(w);
    return true;
  }

  Status Error(const std::string& msg) {
    return Status::ParseError("line " + std::to_string(line) + ": " + msg);
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) { cur_.text = text; }

  Result<ParsedQuery> Run() {
    RETURN_NOT_OK(ParsePrologue());
    if (cur_.ConsumeKeyword("ASK")) {
      query_.is_ask = true;
      query_.select_all = true;
    } else if (cur_.ConsumeKeyword("SELECT")) {
      if (cur_.ConsumeKeyword("DISTINCT")) query_.distinct = true;
      RETURN_NOT_OK(ParseProjection());
    } else {
      return cur_.Error("expected SELECT or ASK");
    }
    cur_.ConsumeKeyword("WHERE");  // optional
    if (!cur_.ConsumeChar('{')) return cur_.Error("expected '{'");
    RETURN_NOT_OK(ParseBgp());
    if (!cur_.ConsumeChar('}')) return cur_.Error("expected '}'");
    RETURN_NOT_OK(ParseModifiers());
    if (!cur_.AtEnd()) return cur_.Error("trailing content after query");
    if (query_.patterns.empty()) return cur_.Error("empty basic graph pattern");
    RETURN_NOT_OK(CheckProjection());
    return std::move(query_);
  }

 private:
  Status ParsePrologue() {
    while (cur_.ConsumeKeyword("PREFIX")) {
      cur_.SkipWs();
      size_t colon = cur_.text.find(':', cur_.pos);
      if (colon == std::string_view::npos) return cur_.Error("bad PREFIX");
      std::string name(Trim(cur_.text.substr(cur_.pos, colon - cur_.pos)));
      cur_.pos = colon + 1;
      cur_.SkipWs();
      if (cur_.Peek() != '<') return cur_.Error("expected IRI in PREFIX");
      size_t end = cur_.text.find('>', cur_.pos);
      if (end == std::string_view::npos) return cur_.Error("unterminated IRI");
      prefixes_[name] = std::string(cur_.text.substr(cur_.pos + 1, end - cur_.pos - 1));
      cur_.pos = end + 1;
    }
    return Status::OK();
  }

  Status ParseProjection() {
    if (cur_.ConsumeChar('*')) {
      query_.select_all = true;
      return Status::OK();
    }
    if (cur_.Peek() == '(') {
      // (COUNT(*) AS ?alias)
      cur_.ConsumeChar('(');
      if (!cur_.ConsumeKeyword("COUNT")) {
        return cur_.Error("only the COUNT(*) aggregate is supported");
      }
      if (!cur_.ConsumeChar('(') || !cur_.ConsumeChar('*') ||
          !cur_.ConsumeChar(')')) {
        return cur_.Error("expected (*) after COUNT");
      }
      if (!cur_.ConsumeKeyword("AS")) return cur_.Error("expected AS in COUNT");
      if (cur_.Peek() != '?') return cur_.Error("expected alias variable");
      ++cur_.pos;
      std::string name = cur_.PeekWord();
      if (name.empty()) return cur_.Error("empty alias variable");
      cur_.ConsumeWord(name);
      if (!cur_.ConsumeChar(')')) return cur_.Error("expected ')' after alias");
      query_.count_aggregate = true;
      query_.projection.push_back(Variable{name});
      return Status::OK();
    }
    while (cur_.Peek() == '?') {
      ++cur_.pos;
      std::string name = cur_.PeekWord();
      if (name.empty()) return cur_.Error("empty variable name");
      cur_.ConsumeWord(name);
      query_.projection.push_back(Variable{name});
    }
    if (query_.projection.empty()) {
      return cur_.Error("expected '*' or at least one ?variable");
    }
    return Status::OK();
  }

  Result<PatternTerm> ParsePatternTerm(bool is_predicate) {
    char c = cur_.Peek();
    if (c == '?') {
      ++cur_.pos;
      std::string name = cur_.PeekWord();
      if (name.empty()) return cur_.Error("empty variable name");
      cur_.ConsumeWord(name);
      return PatternTerm(Variable{name});
    }
    if (c == '<') {
      size_t end = cur_.text.find('>', cur_.pos);
      if (end == std::string_view::npos) return cur_.Error("unterminated IRI");
      std::string iri(cur_.text.substr(cur_.pos + 1, end - cur_.pos - 1));
      cur_.pos = end + 1;
      return PatternTerm(rdf::Term::Iri(std::move(iri)));
    }
    if (c == '"') {
      ++cur_.pos;
      std::string raw;
      while (cur_.pos < cur_.text.size() && cur_.text[cur_.pos] != '"') {
        if (cur_.text[cur_.pos] == '\\' && cur_.pos + 1 < cur_.text.size()) {
          raw += cur_.text[cur_.pos];
          raw += cur_.text[cur_.pos + 1];
          cur_.pos += 2;
          continue;
        }
        raw += cur_.text[cur_.pos];
        ++cur_.pos;
      }
      if (cur_.pos >= cur_.text.size()) return cur_.Error("unterminated literal");
      ++cur_.pos;  // closing quote
      std::string value = UnescapeLiteral(raw);
      // Optional @lang or ^^<dt> / ^^pn:local suffix.
      if (cur_.pos < cur_.text.size() && cur_.text[cur_.pos] == '@') {
        ++cur_.pos;
        std::string lang = cur_.PeekWord();
        cur_.ConsumeWord(lang);
        return PatternTerm(rdf::Term::Literal(value, "", lang));
      }
      if (cur_.pos + 1 < cur_.text.size() && cur_.text[cur_.pos] == '^' &&
          cur_.text[cur_.pos + 1] == '^') {
        cur_.pos += 2;
        ASSIGN_OR_RETURN(PatternTerm dt, ParsePatternTerm(false));
        if (IsVar(dt) || !AsTerm(dt).is_iri()) {
          return cur_.Error("datatype must be an IRI");
        }
        return PatternTerm(rdf::Term::Literal(value, AsTerm(dt).lexical));
      }
      return PatternTerm(rdf::Term::Literal(value));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      size_t start = cur_.pos;
      if (c == '-' || c == '+') ++cur_.pos;
      bool decimal = false;
      while (cur_.pos < cur_.text.size()) {
        char d = cur_.text[cur_.pos];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++cur_.pos;
        } else if (d == '.' && cur_.pos + 1 < cur_.text.size() &&
                   std::isdigit(static_cast<unsigned char>(cur_.text[cur_.pos + 1]))) {
          decimal = true;
          ++cur_.pos;
        } else {
          break;
        }
      }
      std::string num(cur_.text.substr(start, cur_.pos - start));
      return PatternTerm(rdf::Term::Literal(
          num, decimal ? "http://www.w3.org/2001/XMLSchema#decimal"
                       : std::string(rdf::vocab::kXsdInteger)));
    }
    // Bare word: 'a' (predicate position) or prefixed name.
    std::string word = cur_.PeekWord();
    if (word == "a" && is_predicate) {
      cur_.ConsumeWord(word);
      return PatternTerm(rdf::Term::Iri(std::string(rdf::vocab::kRdfType)));
    }
    if (!word.empty()) {
      for (const char* kw : {"OPTIONAL", "UNION", "GRAPH", "MINUS", "BIND",
                             "VALUES", "SERVICE"}) {
        if (cur_.PeekWord() == kw) {
          return cur_.Error(std::string(kw) + " is not supported (BGP subset)");
        }
      }
    }
    // Prefixed name: word ':' local.
    cur_.SkipWs();
    size_t start = cur_.pos;
    size_t i = cur_.pos;
    auto pname_char = [&](char d) {
      return std::isalnum(static_cast<unsigned char>(d)) || d == '_' || d == '-' ||
             d == ':' || d == '.';
    };
    while (i < cur_.text.size() && pname_char(cur_.text[i])) ++i;
    size_t end = i;
    while (end > start && cur_.text[end - 1] == '.') --end;  // statement dot
    std::string pname(cur_.text.substr(start, end - start));
    size_t colon = pname.find(':');
    if (pname.empty() || colon == std::string::npos) {
      return cur_.Error("unexpected token near '" + pname + "'");
    }
    auto it = prefixes_.find(pname.substr(0, colon));
    if (it == prefixes_.end()) {
      return cur_.Error("undeclared prefix in '" + pname + "'");
    }
    cur_.pos = end;
    return PatternTerm(rdf::Term::Iri(it->second + pname.substr(colon + 1)));
  }

  // FILTER ( <term> <op> <term> )
  Status ParseFilter() {
    cur_.ConsumeWord(cur_.PeekWord());  // "FILTER"
    if (!cur_.ConsumeChar('(')) return cur_.Error("expected '(' after FILTER");
    FilterComparison filter;
    ASSIGN_OR_RETURN(filter.lhs, ParsePatternTerm(false));
    cur_.SkipWs();
    struct OpSpec {
      const char* text;
      CompareOp op;
    };
    // Two-character operators must be tried first.
    static constexpr OpSpec kOps[] = {
        {"!=", CompareOp::kNe}, {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
        {"=", CompareOp::kEq},  {"<", CompareOp::kLt},  {">", CompareOp::kGt},
    };
    bool matched = false;
    for (const OpSpec& spec : kOps) {
      size_t len = std::string_view(spec.text).size();
      if (cur_.text.substr(cur_.pos, len) == spec.text) {
        filter.op = spec.op;
        cur_.pos += len;
        matched = true;
        break;
      }
    }
    if (!matched) return cur_.Error("expected comparison operator in FILTER");
    ASSIGN_OR_RETURN(filter.rhs, ParsePatternTerm(false));
    if (!cur_.ConsumeChar(')')) return cur_.Error("expected ')' closing FILTER");
    query_.filters.push_back(std::move(filter));
    cur_.ConsumeChar('.');  // optional separator after FILTER
    return Status::OK();
  }

  Status ParseBgp() {
    while (true) {
      if (cur_.Peek() == '}') break;
      {
        std::string word = cur_.PeekWord();
        bool is_filter = word.size() == 6;
        for (size_t i = 0; is_filter && i < 6; ++i) {
          is_filter = std::toupper(static_cast<unsigned char>(word[i])) ==
                      "FILTER"[i];
        }
        if (is_filter) {
          RETURN_NOT_OK(ParseFilter());
          continue;
        }
      }
      TriplePattern tp;
      ASSIGN_OR_RETURN(tp.s, ParsePatternTerm(false));
      ASSIGN_OR_RETURN(tp.p, ParsePatternTerm(true));
      ASSIGN_OR_RETURN(tp.o, ParsePatternTerm(false));
      if (!IsVar(tp.p) && !AsTerm(tp.p).is_iri()) {
        return cur_.Error("predicate must be an IRI or variable");
      }
      if (!IsVar(tp.s) && AsTerm(tp.s).is_literal()) {
        return cur_.Error("subject must not be a literal");
      }
      query_.patterns.push_back(std::move(tp));
      if (!cur_.ConsumeChar('.')) {
        // SPARQL allows FILTER directly after a pattern without a dot.
        std::string next = cur_.PeekWord();
        bool is_filter = next.size() == 6;
        for (size_t i = 0; is_filter && i < 6; ++i) {
          is_filter =
              std::toupper(static_cast<unsigned char>(next[i])) == "FILTER"[i];
        }
        if (!is_filter) break;
      }
    }
    return Status::OK();
  }

  Result<uint64_t> ParseNonNegativeInt(const char* what) {
    std::string num = cur_.PeekWord();
    if (num.empty() ||
        !std::all_of(num.begin(), num.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c));
        })) {
      return cur_.Error(std::string(what) + " expects a non-negative integer");
    }
    cur_.ConsumeWord(num);
    return std::stoull(num);
  }

  Status ParseModifiers() {
    // ORDER BY [ASC|DESC](?v) | ?v, then LIMIT / OFFSET in either order.
    if (cur_.ConsumeKeyword("ORDER")) {
      if (!cur_.ConsumeKeyword("BY")) return cur_.Error("expected BY after ORDER");
      OrderKey key;
      if (cur_.ConsumeKeyword("DESC")) {
        key.descending = true;
      } else {
        cur_.ConsumeKeyword("ASC");
      }
      bool parenthesized = cur_.ConsumeChar('(');
      if (cur_.Peek() != '?') return cur_.Error("ORDER BY expects a variable");
      ++cur_.pos;
      std::string name = cur_.PeekWord();
      if (name.empty()) return cur_.Error("empty variable name");
      cur_.ConsumeWord(name);
      key.var = Variable{name};
      if (parenthesized && !cur_.ConsumeChar(')')) {
        return cur_.Error("expected ')' in ORDER BY");
      }
      bool found = false;
      for (const Variable& v : query_.AllVariables()) {
        if (v == key.var) found = true;
      }
      if (!found) {
        return Status::InvalidArgument("ORDER BY variable ?" + name +
                                       " does not occur in the BGP");
      }
      query_.order_by = key;
    }
    for (int i = 0; i < 2; ++i) {
      if (cur_.ConsumeKeyword("LIMIT")) {
        ASSIGN_OR_RETURN(uint64_t n, ParseNonNegativeInt("LIMIT"));
        query_.limit = n;
      } else if (cur_.ConsumeKeyword("OFFSET")) {
        ASSIGN_OR_RETURN(uint64_t n, ParseNonNegativeInt("OFFSET"));
        query_.offset = n;
      }
    }
    return Status::OK();
  }

  Status CheckProjection() {
    auto vars = query_.AllVariables();
    auto in_bgp = [&](const Variable& v) {
      for (const Variable& w : vars) {
        if (w == v) return true;
      }
      return false;
    };
    if (!query_.select_all && !query_.count_aggregate) {
      for (const Variable& v : query_.projection) {
        if (!in_bgp(v)) {
          return Status::InvalidArgument("projected variable ?" + v.name +
                                         " does not occur in the BGP");
        }
      }
    }
    for (const FilterComparison& f : query_.filters) {
      for (const PatternTerm* t : {&f.lhs, &f.rhs}) {
        if (IsVar(*t) && !in_bgp(AsVar(*t))) {
          return Status::InvalidArgument("FILTER variable ?" + AsVar(*t).name +
                                         " does not occur in the BGP");
        }
      }
    }
    return Status::OK();
  }

  Cursor cur_;
  ParsedQuery query_;
  std::unordered_map<std::string, std::string> prefixes_;
};

}  // namespace

Result<ParsedQuery> ParseQuery(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace shapestats::sparql
