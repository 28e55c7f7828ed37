// N-Triples reader/writer (line-oriented RDF serialization).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "util/status.h"

namespace shapestats::rdf {

/// Parses N-Triples text into `graph` (which must not be finalized).
/// Lines starting with '#' and blank lines are skipped.
Status ParseNTriples(std::string_view text, Graph* graph);

/// Reads an N-Triples file from disk into `graph`, parsing it in place
/// through a FileView (mapped when it is a regular non-empty file).
/// The file must not be truncated or rewritten while it loads: a mapped
/// file that shrinks under the parser kills the process with SIGBUS.
Status LoadNTriplesFile(const std::string& path, Graph* graph);

/// Serializes a finalized graph as N-Triples (SPO order).
std::string WriteNTriples(const Graph& graph);

/// Writes a finalized graph to a file.
Status SaveNTriplesFile(const Graph& graph, const std::string& path);

}  // namespace shapestats::rdf
