// QueryLint: the one static rule about a query's shape rather than its
// answer. Surfaced through QueryEngine::StaticCheck / Explain (ahead of the
// ShapeChecker's findings) and by the stats_lint tool. Lint findings never
// block execution.
//
// Rule catalog (severity warning):
//   query.cartesian   the BGP's join graph is disconnected, forcing at
//                     least one Cartesian product
//
// Emptiness facts (missing constants, unknown predicates, empty classes)
// belong to the ShapeChecker's check.* rules, and variables that never
// occur in the BGP are rejected by the parser (and, for hand-built queries,
// by the executors).
#pragma once

#include "analysis/diagnostics.h"
#include "rdf/dictionary.h"
#include "sparql/encoded_bgp.h"
#include "sparql/query.h"
#include "stats/global_stats.h"

namespace shapestats::analysis {

class QueryLint {
 public:
  QueryLint(const stats::GlobalStats&, const rdf::TermDictionary&) {}

  /// Lints the encoded BGP; publishes the analysis.lint_warnings counter.
  Diagnostics Lint(const sparql::ParsedQuery& query,
                   const sparql::EncodedBgp& bgp) const;
};

}  // namespace shapestats::analysis
