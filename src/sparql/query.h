// SPARQL query AST for the subset the paper uses: SELECT queries over a
// single basic graph pattern (Definition 3.2), with PREFIX, DISTINCT and
// LIMIT. Patterns hold decoded terms; encoding against a graph dictionary
// happens in encoded_bgp.h.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "rdf/term.h"

namespace shapestats::sparql {

/// A variable (without the leading '?').
struct Variable {
  std::string name;
  bool operator==(const Variable& o) const { return name == o.name; }
};

/// One position of a triple pattern: a variable or a concrete RDF term.
using PatternTerm = std::variant<Variable, rdf::Term>;

inline bool IsVar(const PatternTerm& t) {
  return std::holds_alternative<Variable>(t);
}
inline const Variable& AsVar(const PatternTerm& t) {
  return std::get<Variable>(t);
}
inline const rdf::Term& AsTerm(const PatternTerm& t) {
  return std::get<rdf::Term>(t);
}

/// A triple pattern <s, p, o> where each position may be bound or a variable.
struct TriplePattern {
  PatternTerm s;
  PatternTerm p;
  PatternTerm o;

  /// Human-readable rendering, e.g. "?x <http://...> \"v\"".
  std::string ToString() const;

  bool operator==(const TriplePattern&) const = default;
};

/// Comparison operator of a FILTER expression.
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// One FILTER(lhs OP rhs) constraint. Multiple filters conjoin. Operands
/// are variables or constants; numeric comparison applies when both sides
/// evaluate to numeric literals, term/lexical comparison otherwise.
struct FilterComparison {
  PatternTerm lhs;
  CompareOp op;
  PatternTerm rhs;

  bool operator==(const FilterComparison&) const = default;
};

/// ORDER BY key: one variable, ascending or descending.
struct OrderKey {
  Variable var;
  bool descending = false;

  bool operator==(const OrderKey&) const = default;
};

/// A parsed query: projection + one BGP + solution modifiers. Besides
/// SELECT, the subset covers ASK (is_ask) and the COUNT(*) aggregate
/// (count_aggregate, with the alias variable as the only projection).
struct ParsedQuery {
  bool is_ask = false;                  // ASK { ... }
  bool count_aggregate = false;         // SELECT (COUNT(*) AS ?v)
  bool distinct = false;
  bool select_all = false;              // SELECT *
  std::vector<Variable> projection;     // empty iff select_all
  std::vector<TriplePattern> patterns;  // the BGP, in textual order
  std::vector<FilterComparison> filters;
  std::optional<OrderKey> order_by;
  uint64_t offset = 0;
  std::optional<uint64_t> limit;

  /// All distinct variables in pattern order of first occurrence.
  std::vector<Variable> AllVariables() const;

  bool operator==(const ParsedQuery&) const = default;
};

}  // namespace shapestats::sparql
