// Recursive-descent parser for the SPARQL SELECT subset used by the
// benchmarks: PREFIX declarations, SELECT [DISTINCT] (?v... | *),
// WHERE { BGP }, LIMIT n. The BGP supports the 'a' keyword, prefixed
// names, IRIs, and string/integer literals; FILTER/OPTIONAL/UNION are
// rejected with ParseError (the paper's study covers plain BGPs).
#pragma once

#include <string_view>

#include "sparql/encoded_bgp.h"
#include "sparql/query.h"
#include "util/status.h"

namespace shapestats::sparql {

/// Parses SPARQL text into a ParsedQuery.
Result<ParsedQuery> ParseQuery(std::string_view text);

/// The one-pass front end: parses `text` and, in the same pass, hands every
/// triple pattern to `encoder` as it is read — variables numbered by first
/// occurrence in pattern order, each constant's dictionary key rendered
/// once. `encoder->Finish(dict)` then returns exactly what
/// EncodeBgp(query, dict) returns for the parsed query. On error the
/// encoder's contents are unspecified.
Result<ParsedQuery> ParseQuery(std::string_view text, BgpEncoder* encoder);

}  // namespace shapestats::sparql
