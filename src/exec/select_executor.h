// SELECT execution: evaluates a full SELECT query (BGP + FILTER +
// DISTINCT + ORDER BY + OFFSET/LIMIT) and returns the solution table. It
// runs the same depth-first evaluator as ExecuteBgp (exec/executor.cc) in
// row mode: filters run at the join depth where their variables are
// bound, and rows stop at OFFSET + LIMIT when neither ORDER BY nor
// DISTINCT needs the whole result. The paper's future work — "enable the
// support of additional SPARQL query operators" — lands here.
#pragma once

#include <string>
#include <vector>

#include "exec/executor.h"
#include "rdf/graph.h"
#include "sparql/encoded_bgp.h"
#include "sparql/query.h"
#include "util/status.h"

namespace shapestats::exec {

/// A solution table: one row per solution mapping, one column per
/// projected variable.
struct ResultTable {
  std::vector<std::string> var_names;          // projected variables
  std::vector<std::vector<rdf::TermId>> rows;  // after all modifiers
  uint64_t bgp_matches = 0;  // BGP matches before filters/modifiers
  bool timed_out = false;
  /// True when the abort was a served ResourceTracker cancellation (a
  /// cancelled run also sets timed_out: both truncate execution).
  bool cancelled = false;
  /// True when ExecOptions::max_intermediate_rows stopped the run (it also
  /// sets timed_out).
  bool row_capped = false;
  double elapsed_ms = 0;

  /// Renders the table (up to max_rows rows) for terminal output.
  std::string ToString(const rdf::TermDictionary& dict,
                       size_t max_rows = 25) const;
};

/// Executes `query` joining the BGP patterns in `order` (indices into the
/// encoded patterns). `bgp` must be the encoding of `query` against
/// `graph.dict()`. Filters are applied as early as their variables are
/// bound; DISTINCT / ORDER BY / OFFSET / LIMIT apply afterwards.
Result<ResultTable> ExecuteSelect(const rdf::Graph& graph,
                                  const sparql::ParsedQuery& query,
                                  const sparql::EncodedBgp& bgp,
                                  const std::vector<uint32_t>& order,
                                  const ExecOptions& options = {});

/// Convenience: encodes the query and executes in textual pattern order.
Result<ResultTable> ExecuteSelect(const rdf::Graph& graph,
                                  const sparql::ParsedQuery& query,
                                  const ExecOptions& options = {});

}  // namespace shapestats::exec
