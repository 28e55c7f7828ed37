#include "sparql/parser.h"

#include <cctype>
#include <cstdint>
#include <limits>

#include "rdf/vocab.h"
#include "util/string_util.h"

namespace shapestats::sparql {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

bool EqualsIgnoreCase(std::string_view word, std::string_view keyword) {
  if (word.size() != keyword.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(word[i])) !=
        std::toupper(static_cast<unsigned char>(keyword[i]))) {
      return false;
    }
  }
  return true;
}

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

  /// The bare word (letters/digits/_/-) at the cursor, as a view into the
  /// text; empty if none.
  std::string_view PeekWord() {
    SkipWs();
    size_t i = pos;
    while (i < text.size() && IsWordChar(text[i])) ++i;
    return text.substr(pos, i - pos);
  }

  void ConsumeWord(std::string_view w) { pos += w.size(); }

  /// Case-insensitive keyword match + consume.
  bool ConsumeKeyword(std::string_view kw) {
    std::string_view w = PeekWord();
    if (!EqualsIgnoreCase(w, kw)) return false;
    ConsumeWord(w);
    return true;
  }

  Status Error(std::string_view msg) {
    std::string out = "line " + std::to_string(line) + ": ";
    out += msg;
    return Status::ParseError(std::move(out));
  }
};

/// A PREFIX declaration, both parts viewing the query text.
struct Prefix {
  std::string_view name;
  std::string_view iri;
};

/// Per-thread buffers reused across parses: the prefix table, and the
/// encoder that numbers pattern variables when the caller brings none.
struct Scratch {
  std::vector<Prefix> prefixes;
  BgpEncoder encoder;
};

Scratch& GetScratch() {
  thread_local Scratch scratch;
  return scratch;
}

class Parser {
 public:
  /// Every triple pattern is handed to `encoder` as soon as it is read, so
  /// pattern variables are numbered in pattern order; the projection,
  /// FILTER and ORDER BY checks look variables up there.
  Parser(std::string_view text, std::vector<Prefix>* prefixes,
         BgpEncoder* encoder)
      : prefixes_(*prefixes), encoder_(*encoder) {
    cur_.text = text;
    prefixes_.clear();
    encoder_.Reset();
  }

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
      const std::string_view name =
          Trim(cur_.text.substr(cur_.pos, colon - cur_.pos));
      cur_.pos = colon + 1;
      cur_.SkipWs();
      if (cur_.Peek() != '<') return cur_.Error("expected IRI in PREFIX");
      size_t end = cur_.text.find('>', cur_.pos);
      if (end == std::string_view::npos) return cur_.Error("unterminated IRI");
      prefixes_.push_back(
          {name, cur_.text.substr(cur_.pos + 1, end - cur_.pos - 1)});
      cur_.pos = end + 1;
    }
    return Status::OK();
  }

  /// The IRI a prefix name stands for; a redeclared prefix resolves to its
  /// last declaration.
  const Prefix* FindPrefix(std::string_view name) const {
    for (size_t i = prefixes_.size(); i-- > 0;) {
      if (prefixes_[i].name == name) return &prefixes_[i];
    }
    return nullptr;
  }

  /// `?name` at the cursor (the '?' already checked by the caller).
  Result<std::string_view> ParseVarName(const char* empty_error) {
    ++cur_.pos;
    std::string_view name = cur_.PeekWord();
    if (name.empty()) return cur_.Error(empty_error);
    cur_.ConsumeWord(name);
    return name;
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
      ASSIGN_OR_RETURN(std::string_view name,
                       ParseVarName("empty alias variable"));
      if (!cur_.ConsumeChar(')')) return cur_.Error("expected ')' after alias");
      query_.count_aggregate = true;
      query_.projection.push_back(Variable{std::string(name)});
      return Status::OK();
    }
    while (cur_.Peek() == '?') {
      ASSIGN_OR_RETURN(std::string_view name,
                       ParseVarName("empty variable name"));
      query_.projection.push_back(Variable{std::string(name)});
    }
    if (query_.projection.empty()) {
      return cur_.Error("expected '*' or at least one ?variable");
    }
    return Status::OK();
  }

  Result<PatternTerm> ParsePatternTerm(bool is_predicate) {
    char c = cur_.Peek();
    if (c == '?') {
      ASSIGN_OR_RETURN(std::string_view name,
                       ParseVarName("empty variable name"));
      return PatternTerm(Variable{std::string(name)});
    }
    if (c == '<') {
      size_t end = cur_.text.find('>', cur_.pos);
      if (end == std::string_view::npos) return cur_.Error("unterminated IRI");
      std::string iri(cur_.text.substr(cur_.pos + 1, end - cur_.pos - 1));
      cur_.pos = end + 1;
      return PatternTerm(rdf::Term::Iri(std::move(iri)));
    }
    if (c == '"') {
      // The raw (still escaped) value runs to the first unescaped quote.
      const size_t start = ++cur_.pos;
      while (cur_.pos < cur_.text.size() && cur_.text[cur_.pos] != '"') {
        cur_.pos += cur_.text[cur_.pos] == '\\' &&
                            cur_.pos + 1 < cur_.text.size()
                        ? 2
                        : 1;
      }
      if (cur_.pos >= cur_.text.size()) return cur_.Error("unterminated literal");
      std::string value =
          UnescapeLiteral(cur_.text.substr(start, cur_.pos - start));
      ++cur_.pos;  // closing quote
      // Optional @lang or ^^<dt> / ^^pn:local suffix.
      if (cur_.pos < cur_.text.size() && cur_.text[cur_.pos] == '@') {
        ++cur_.pos;
        std::string_view lang = cur_.PeekWord();
        cur_.ConsumeWord(lang);
        return PatternTerm(
            rdf::Term::Literal(std::move(value), "", std::string(lang)));
      }
      if (cur_.pos + 1 < cur_.text.size() && cur_.text[cur_.pos] == '^' &&
          cur_.text[cur_.pos + 1] == '^') {
        cur_.pos += 2;
        ASSIGN_OR_RETURN(PatternTerm dt, ParsePatternTerm(false));
        if (IsVar(dt) || !AsTerm(dt).is_iri()) {
          return cur_.Error("datatype must be an IRI");
        }
        return PatternTerm(rdf::Term::Literal(
            std::move(value), std::move(std::get<rdf::Term>(dt).lexical)));
      }
      return PatternTerm(rdf::Term::Literal(std::move(value)));
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
      return PatternTerm(rdf::Term::Literal(
          std::string(cur_.text.substr(start, cur_.pos - start)),
          decimal ? "http://www.w3.org/2001/XMLSchema#decimal"
                  : std::string(rdf::vocab::kXsdInteger)));
    }
    // Bare word: 'a' (predicate position) or prefixed name.
    const std::string_view word = cur_.PeekWord();
    if (word == "a" && is_predicate) {
      cur_.ConsumeWord(word);
      return PatternTerm(rdf::Term::Iri(std::string(rdf::vocab::kRdfType)));
    }
    for (const char* kw : {"OPTIONAL", "UNION", "GRAPH", "MINUS", "BIND",
                           "VALUES", "SERVICE"}) {
      if (word == kw) {
        return cur_.Error(std::string(kw) + " is not supported (BGP subset)");
      }
    }
    // Prefixed name: word ':' local.
    const size_t start = cur_.pos;
    size_t end = start;
    auto pname_char = [](char d) {
      return IsWordChar(d) || d == ':' || d == '.';
    };
    while (end < cur_.text.size() && pname_char(cur_.text[end])) ++end;
    while (end > start && cur_.text[end - 1] == '.') --end;  // statement dot
    const std::string_view pname = cur_.text.substr(start, end - start);
    const size_t colon = pname.find(':');
    if (pname.empty() || colon == std::string_view::npos) {
      return cur_.Error("unexpected token near '" + std::string(pname) + "'");
    }
    const Prefix* prefix = FindPrefix(pname.substr(0, colon));
    if (prefix == nullptr) {
      return cur_.Error("undeclared prefix in '" + std::string(pname) + "'");
    }
    cur_.pos = end;
    const std::string_view local = pname.substr(colon + 1);
    std::string iri;
    iri.reserve(prefix->iri.size() + local.size());
    iri.append(prefix->iri).append(local);
    return PatternTerm(rdf::Term::Iri(std::move(iri)));
  }

  // FILTER ( <term> <op> <term> )
  Status ParseFilter() {
    cur_.ConsumeWord(cur_.PeekWord());  // "FILTER"
    if (!cur_.ConsumeChar('(')) return cur_.Error("expected '(' after FILTER");
    FilterComparison filter;
    ASSIGN_OR_RETURN(filter.lhs, ParsePatternTerm(false));
    cur_.SkipWs();
    struct OpSpec {
      std::string_view text;
      CompareOp op;
    };
    // Two-character operators must be tried first.
    static constexpr OpSpec kOps[] = {
        {"!=", CompareOp::kNe}, {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
        {"=", CompareOp::kEq},  {"<", CompareOp::kLt},  {">", CompareOp::kGt},
    };
    bool matched = false;
    for (const OpSpec& spec : kOps) {
      if (cur_.text.substr(cur_.pos, spec.text.size()) == spec.text) {
        filter.op = spec.op;
        cur_.pos += spec.text.size();
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
      if (EqualsIgnoreCase(cur_.PeekWord(), "FILTER")) {
        RETURN_NOT_OK(ParseFilter());
        continue;
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
      const EncodedTerm s = encoder_.Encode(tp.s);
      const EncodedTerm p = encoder_.Encode(tp.p);
      const EncodedTerm o = encoder_.Encode(tp.o);
      encoder_.AddPattern(s, p, o);
      query_.patterns.push_back(std::move(tp));
      // SPARQL allows FILTER directly after a pattern without a dot.
      if (!cur_.ConsumeChar('.') &&
          !EqualsIgnoreCase(cur_.PeekWord(), "FILTER")) {
        break;
      }
    }
    return Status::OK();
  }

  Result<uint64_t> ParseNonNegativeInt(const char* what) {
    const std::string_view num = cur_.PeekWord();
    bool digits = !num.empty();
    for (char c : num) digits = digits && std::isdigit(static_cast<unsigned char>(c));
    if (!digits) {
      return cur_.Error(std::string(what) + " expects a non-negative integer");
    }
    cur_.ConsumeWord(num);
    uint64_t value = 0;
    constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
    for (char c : num) {
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      if (value > (kMax - digit) / 10) {
        return cur_.Error(std::string(what) + " " + std::string(num) +
                          " does not fit in 64 bits");
      }
      value = value * 10 + digit;
    }
    return value;
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
      ASSIGN_OR_RETURN(std::string_view name,
                       ParseVarName("empty variable name"));
      key.var = Variable{std::string(name)};
      if (parenthesized && !cur_.ConsumeChar(')')) {
        return cur_.Error("expected ')' in ORDER BY");
      }
      if (encoder_.FindVar(name) < 0) {
        return Status::InvalidArgument("ORDER BY variable ?" + key.var.name +
                                       " does not occur in the BGP");
      }
      query_.order_by = std::move(key);
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
    if (!query_.select_all && !query_.count_aggregate) {
      for (const Variable& v : query_.projection) {
        if (encoder_.FindVar(v.name) < 0) {
          return Status::InvalidArgument("projected variable ?" + v.name +
                                         " does not occur in the BGP");
        }
      }
    }
    for (const FilterComparison& f : query_.filters) {
      for (const PatternTerm* t : {&f.lhs, &f.rhs}) {
        if (IsVar(*t) && encoder_.FindVar(AsVar(*t).name) < 0) {
          return Status::InvalidArgument("FILTER variable ?" + AsVar(*t).name +
                                         " does not occur in the BGP");
        }
      }
    }
    return Status::OK();
  }

  Cursor cur_;
  ParsedQuery query_;
  std::vector<Prefix>& prefixes_;
  BgpEncoder& encoder_;
};

}  // namespace

Result<ParsedQuery> ParseQuery(std::string_view text) {
  Scratch& scratch = GetScratch();
  return Parser(text, &scratch.prefixes, &scratch.encoder).Run();
}

Result<ParsedQuery> ParseQuery(std::string_view text, BgpEncoder* encoder) {
  return Parser(text, &GetScratch().prefixes, encoder).Run();
}

}  // namespace shapestats::sparql
