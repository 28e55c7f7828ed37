// Turtle-subset reader/writer. Covers the features SHACL shapes files use:
// @prefix, prefixed names, the 'a' keyword, predicate-object lists (';'),
// object lists (','), anonymous blank nodes '[ ... ]' (nested), blank node
// labels, and string/integer/decimal/boolean literals.
//
// Not covered (returns ParseError): collections '( )', multi-line strings,
// relative IRI resolution, @base.
#pragma once

#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "util/status.h"

namespace shapestats::rdf {

/// Parses Turtle text into `graph` (which must not be finalized).
Status ParseTurtle(std::string_view text, Graph* graph);

/// Reads a Turtle file from disk into `graph`, parsing it in place through a
/// FileView (mapped when it is a regular non-empty file). The file must not
/// be truncated or rewritten while it loads: a mapped file that shrinks under
/// the parser kills the process with SIGBUS.
Status LoadTurtleFile(const std::string& path, Graph* graph);

}  // namespace shapestats::rdf
