#include "rdf/turtle.h"

#include <cctype>
#include <unordered_map>

#include "rdf/vocab.h"
#include "util/file_view.h"
#include "util/string_util.h"

namespace shapestats::rdf {

namespace {

enum class TokKind {
  kIriRef,      // <...>
  kPName,       // pre:local or :local
  kBlankLabel,  // _:x
  kString,      // "..." (+ suffix handled separately)
  kInteger,
  kDecimal,
  kA,           // keyword 'a'
  kBool,        // true / false
  kPrefixDecl,  // @prefix
  kDot,
  kSemicolon,
  kComma,
  kLBracket,
  kRBracket,
  kLangTag,     // @en
  kDTypeMark,   // ^^
  kEof,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t line;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<Token> Next() {
    SkipWsAndComments();
    if (pos_ >= text_.size()) return Token{TokKind::kEof, "", line_};
    char c = text_[pos_];
    if (c == '.') return Simple(TokKind::kDot);
    if (c == ';') return Simple(TokKind::kSemicolon);
    if (c == ',') return Simple(TokKind::kComma);
    if (c == '[') return Simple(TokKind::kLBracket);
    if (c == ']') return Simple(TokKind::kRBracket);
    if (c == '<') return LexIri();
    if (c == '"') return LexString();
    if (c == '^') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '^') {
        pos_ += 2;
        return Token{TokKind::kDTypeMark, "^^", line_};
      }
      return Err("stray '^'");
    }
    if (c == '@') return LexAtKeyword();
    if (c == '-' || c == '+' || std::isdigit(static_cast<unsigned char>(c))) {
      return LexNumber();
    }
    return LexName();
  }

 private:
  Token Simple(TokKind kind) {
    Token t{kind, std::string(1, text_[pos_]), line_};
    ++pos_;
    return t;
  }

  Status Err(const std::string& msg) {
    return Status::ParseError("line " + std::to_string(line_) + ": " + msg);
  }

  void SkipWsAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (IsAsciiSpace(c)) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Result<Token> LexIri() {
    size_t end = text_.find('>', pos_ + 1);
    if (end == std::string_view::npos) return Err("unterminated IRI");
    Token t{TokKind::kIriRef, std::string(text_.substr(pos_ + 1, end - pos_ - 1)),
            line_};
    pos_ = end + 1;
    return t;
  }

  Result<Token> LexString() {
    size_t i = pos_ + 1;
    std::string raw;
    while (i < text_.size()) {
      if (text_[i] == '\\' && i + 1 < text_.size()) {
        raw += text_[i];
        raw += text_[i + 1];
        i += 2;
        continue;
      }
      if (text_[i] == '"') break;
      if (text_[i] == '\n') ++line_;
      raw += text_[i];
      ++i;
    }
    if (i >= text_.size()) return Err("unterminated string literal");
    pos_ = i + 1;
    return Token{TokKind::kString, UnescapeLiteral(raw), line_};
  }

  Result<Token> LexAtKeyword() {
    size_t i = pos_ + 1;
    size_t start = i;
    while (i < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[i])) || text_[i] == '-')) {
      ++i;
    }
    std::string word(text_.substr(start, i - start));
    pos_ = i;
    if (word == "prefix") return Token{TokKind::kPrefixDecl, word, line_};
    return Token{TokKind::kLangTag, word, line_};
  }

  Result<Token> LexNumber() {
    size_t i = pos_;
    if (text_[i] == '+' || text_[i] == '-') ++i;
    bool decimal = false;
    while (i < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[i])) || text_[i] == '.')) {
      if (text_[i] == '.') {
        // A dot followed by a non-digit terminates the statement instead.
        if (i + 1 >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[i + 1]))) {
          break;
        }
        decimal = true;
      }
      ++i;
    }
    Token t{decimal ? TokKind::kDecimal : TokKind::kInteger,
            std::string(text_.substr(pos_, i - pos_)), line_};
    pos_ = i;
    return t;
  }

  Result<Token> LexName() {
    size_t i = pos_;
    auto name_char = [&](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
             c == ':' || c == '.' || c == '%';
    };
    while (i < text_.size() && name_char(text_[i])) ++i;
    // A trailing '.' belongs to the statement terminator, not the name.
    size_t end = i;
    while (end > pos_ && text_[end - 1] == '.') --end;
    std::string word(text_.substr(pos_, end - pos_));
    if (word.empty()) return Err(std::string("unexpected character '") + text_[pos_] + "'");
    pos_ = end;
    if (word == "a") return Token{TokKind::kA, word, line_};
    if (word == "true" || word == "false") return Token{TokKind::kBool, word, line_};
    if (StartsWith(word, "_:")) {
      return Token{TokKind::kBlankLabel, word.substr(2), line_};
    }
    if (word.find(':') == std::string::npos) {
      return Err("bare word '" + word + "' is not valid Turtle");
    }
    return Token{TokKind::kPName, word, line_};
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

class TurtleParser {
 public:
  TurtleParser(std::string_view text, Graph* graph)
      : lexer_(text), graph_(graph) {}

  Status Run() {
    RETURN_NOT_OK(Advance());
    while (tok_.kind != TokKind::kEof) {
      if (tok_.kind == TokKind::kPrefixDecl) {
        RETURN_NOT_OK(ParsePrefix());
      } else {
        RETURN_NOT_OK(ParseStatement());
      }
    }
    return Status::OK();
  }

 private:
  Status Advance() {
    ASSIGN_OR_RETURN(tok_, lexer_.Next());
    return Status::OK();
  }

  Status Expect(TokKind kind, const char* what) {
    if (tok_.kind != kind) {
      return Status::ParseError("line " + std::to_string(tok_.line) +
                                ": expected " + what + ", got '" + tok_.text + "'");
    }
    return Advance();
  }

  Status ParsePrefix() {
    RETURN_NOT_OK(Advance());  // consume @prefix
    if (tok_.kind != TokKind::kPName) {
      return Status::ParseError("line " + std::to_string(tok_.line) +
                                ": expected prefix name");
    }
    std::string pname = tok_.text;
    if (pname.empty() || pname.back() != ':') {
      return Status::ParseError("prefix must end with ':': " + pname);
    }
    RETURN_NOT_OK(Advance());
    if (tok_.kind != TokKind::kIriRef) {
      return Status::ParseError("expected IRI in @prefix");
    }
    prefixes_[pname.substr(0, pname.size() - 1)] = tok_.text;
    RETURN_NOT_OK(Advance());
    return Expect(TokKind::kDot, "'.'");
  }

  Result<Term> ExpandPName(const Token& tok) {
    size_t colon = tok.text.find(':');
    std::string prefix = tok.text.substr(0, colon);
    std::string local = tok.text.substr(colon + 1);
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Status::ParseError("line " + std::to_string(tok.line) +
                                ": undeclared prefix '" + prefix + ":'");
    }
    return Term::Iri(it->second + local);
  }

  // Parses a subject or object term. May recurse into '[ ... ]'.
  Result<TermId> ParseNode(bool as_subject) {
    switch (tok_.kind) {
      case TokKind::kIriRef: {
        TermId id = graph_->dict().InternIri(tok_.text);
        RETURN_NOT_OK(Advance());
        return id;
      }
      case TokKind::kPName: {
        ASSIGN_OR_RETURN(Term t, ExpandPName(tok_));
        RETURN_NOT_OK(Advance());
        return graph_->dict().Intern(t);
      }
      case TokKind::kBlankLabel: {
        TermId id = graph_->dict().Intern(Term::Blank(tok_.text));
        RETURN_NOT_OK(Advance());
        return id;
      }
      case TokKind::kLBracket: {
        RETURN_NOT_OK(Advance());
        TermId id = graph_->dict().Intern(
            Term::Blank("anon" + std::to_string(anon_counter_++)));
        if (tok_.kind != TokKind::kRBracket) {
          RETURN_NOT_OK(ParsePredicateObjectList(id));
        }
        RETURN_NOT_OK(Expect(TokKind::kRBracket, "']'"));
        return id;
      }
      case TokKind::kString: {
        std::string value = tok_.text;
        RETURN_NOT_OK(Advance());
        if (tok_.kind == TokKind::kLangTag) {
          std::string lang = tok_.text;
          RETURN_NOT_OK(Advance());
          return graph_->dict().Intern(Term::Literal(value, "", lang));
        }
        if (tok_.kind == TokKind::kDTypeMark) {
          RETURN_NOT_OK(Advance());
          Term dt;
          if (tok_.kind == TokKind::kIriRef) {
            dt = Term::Iri(tok_.text);
          } else if (tok_.kind == TokKind::kPName) {
            ASSIGN_OR_RETURN(dt, ExpandPName(tok_));
          } else {
            return Status::ParseError("expected datatype IRI after ^^");
          }
          RETURN_NOT_OK(Advance());
          return graph_->dict().Intern(Term::Literal(value, dt.lexical));
        }
        return graph_->dict().Intern(Term::Literal(value));
      }
      case TokKind::kInteger: {
        TermId id = graph_->dict().Intern(
            Term::Literal(tok_.text, std::string(vocab::kXsdInteger)));
        RETURN_NOT_OK(Advance());
        return id;
      }
      case TokKind::kDecimal: {
        TermId id = graph_->dict().Intern(Term::Literal(
            tok_.text, "http://www.w3.org/2001/XMLSchema#decimal"));
        RETURN_NOT_OK(Advance());
        return id;
      }
      case TokKind::kBool: {
        TermId id = graph_->dict().Intern(Term::Literal(
            tok_.text, "http://www.w3.org/2001/XMLSchema#boolean"));
        RETURN_NOT_OK(Advance());
        return id;
      }
      default:
        return Status::ParseError("line " + std::to_string(tok_.line) + ": bad " +
                                  (as_subject ? "subject" : "object") + " token '" +
                                  tok_.text + "'");
    }
  }

  Result<TermId> ParsePredicate() {
    if (tok_.kind == TokKind::kA) {
      RETURN_NOT_OK(Advance());
      return graph_->dict().InternIri(vocab::kRdfType);
    }
    if (tok_.kind == TokKind::kIriRef) {
      TermId id = graph_->dict().InternIri(tok_.text);
      RETURN_NOT_OK(Advance());
      return id;
    }
    if (tok_.kind == TokKind::kPName) {
      ASSIGN_OR_RETURN(Term t, ExpandPName(tok_));
      RETURN_NOT_OK(Advance());
      return graph_->dict().Intern(t);
    }
    return Status::ParseError("line " + std::to_string(tok_.line) +
                              ": expected predicate, got '" + tok_.text + "'");
  }

  Status ParsePredicateObjectList(TermId subject) {
    while (true) {
      ASSIGN_OR_RETURN(TermId pred, ParsePredicate());
      // Object list.
      while (true) {
        ASSIGN_OR_RETURN(TermId obj, ParseNode(/*as_subject=*/false));
        graph_->Add(subject, pred, obj);
        if (tok_.kind == TokKind::kComma) {
          RETURN_NOT_OK(Advance());
          continue;
        }
        break;
      }
      if (tok_.kind == TokKind::kSemicolon) {
        RETURN_NOT_OK(Advance());
        // Allow dangling ';' before '.' or ']'.
        if (tok_.kind == TokKind::kDot || tok_.kind == TokKind::kRBracket) break;
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Status ParseStatement() {
    bool bracketed_subject = tok_.kind == TokKind::kLBracket;
    ASSIGN_OR_RETURN(TermId subject, ParseNode(/*as_subject=*/true));
    // "[ ... ] ." is a complete statement: the predicate-object list lives
    // inside the brackets.
    if (bracketed_subject && tok_.kind == TokKind::kDot) return Advance();
    RETURN_NOT_OK(ParsePredicateObjectList(subject));
    return Expect(TokKind::kDot, "'.'");
  }

  Lexer lexer_;
  Graph* graph_;
  Token tok_{TokKind::kEof, "", 0};
  std::unordered_map<std::string, std::string> prefixes_;
  uint64_t anon_counter_ = 0;
};

}  // namespace

Status ParseTurtle(std::string_view text, Graph* graph) {
  if (graph->finalized()) {
    return Status::InvalidArgument("graph already finalized");
  }
  return TurtleParser(text, graph).Run();
}

Status LoadTurtleFile(const std::string& path, Graph* graph) {
  Result<FileView> file = FileView::Open(path);
  if (!file.ok()) return file.status();
  return ParseTurtle(file->text(), graph);
}

}  // namespace shapestats::rdf
