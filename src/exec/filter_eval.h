// Shared SELECT-query machinery: filter encoding/evaluation, projection
// and ORDER BY resolution, and the post-BGP solution modifiers (DISTINCT /
// ORDER BY / OFFSET / LIMIT). Factored out of the depth-first SELECT
// executor so the materializing physical executor (src/phys/) evaluates
// filters and modifiers with byte-for-byte identical semantics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/encoded_bgp.h"
#include "sparql/query.h"
#include "util/status.h"

namespace shapestats::exec {

/// A filter operand after encoding: a variable id, or a decoded constant
/// term (compared by value, so constants absent from the data still work).
struct EncodedOperand {
  bool is_var = false;
  uint32_t var_id = 0;
  rdf::Term term;                // set when !is_var
  std::optional<double> number;  // NumericValue(term.view()), when !is_var
};

struct EncodedFilter {
  EncodedOperand lhs;
  sparql::CompareOp op;
  EncodedOperand rhs;
  size_t ready_depth = 0;  // earliest step at which all vars are bound
};

/// All of a query's filters, grouped by the earliest join step at which
/// they can run for a given join order.
struct FilterPlan {
  std::vector<std::vector<EncodedFilter>> by_depth;  // index = step
  /// A constant-only filter evaluated false: the query has no solutions.
  bool unsatisfiable = false;
};

/// The number a literal term stands for in comparisons: set when its whole
/// lexical form is one number to strtod, which skips leading whitespace,
/// reads hex, inf and nan, and fails with ERANGE on overflow and underflow
/// (so "1e999" and "1e-400" are not numbers). IRIs and blank nodes have
/// none.
std::optional<double> NumericValue(rdf::TermView term);

/// SPARQL-ish comparison: numeric when both sides are numeric literals,
/// term equality for =/!=, lexical ordering as the fallback for </>. A
/// query constant takes part as Term::view(), so "x" and
/// "x"^^xsd:string are the same term on either side. `va` and `vb` are
/// NumericValue(a) and NumericValue(b), read once by the caller (`vb` may
/// be left unset when `va` is).
bool CompareTerms(rdf::TermView a, std::optional<double> va,
                  sparql::CompareOp op, rdf::TermView b,
                  std::optional<double> vb);

/// Encodes `query`'s filters against the BGP's variable table, computing
/// each filter's readiness depth for the join order `order`. Fails on
/// filter variables that do not occur in the BGP.
Result<FilterPlan> EncodeFilters(const sparql::ParsedQuery& query,
                                 const sparql::EncodedBgp& bgp,
                                 const std::vector<uint32_t>& order);

/// Evaluates one depth's filters against the current variable bindings
/// (`bindings[v]` is the TermId bound to VarId v).
bool FiltersPass(const std::vector<EncodedFilter>& filters,
                 const rdf::TermId* bindings,
                 const rdf::TermDictionary& dict);

/// Projection columns and ORDER BY variable resolved against the BGP.
struct SelectShape {
  std::vector<std::string> var_names;       // output column names
  std::vector<sparql::VarId> projection;    // column -> variable id
  std::optional<sparql::VarId> order_var;   // ORDER BY variable
};

Result<SelectShape> PrepareSelectShape(const sparql::ParsedQuery& query,
                                       const sparql::EncodedBgp& bgp);

/// Applies DISTINCT, ORDER BY (stable, via `order_keys`, parallel to
/// `rows`), OFFSET and LIMIT in place — the exact modifier pipeline of the
/// depth-first SELECT executor. `order_keys` may be empty when the query
/// has no ORDER BY.
Status ApplyModifiers(const sparql::ParsedQuery& query,
                      const rdf::TermDictionary& dict,
                      std::vector<std::vector<rdf::TermId>>* rows,
                      std::vector<rdf::TermId>* order_keys);

}  // namespace shapestats::exec
