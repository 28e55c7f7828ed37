// N-Triples reader/writer (line-oriented RDF serialization).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shapestats::rdf {

/// Parses N-Triples text into `graph` (which must not be finalized).
/// Lines starting with '#' and blank lines are skipped.
///
/// The text is parsed in the line-aligned chunks NTriplesChunks(text,
/// pool->num_threads()) gives, in parallel on `pool` (the shared pool when
/// null). The result does not depend on the pool: every term gets the id,
/// key and term, and every triple the place in the staging area, that a
/// line-by-line parse in file order gives. A malformed line fails the parse
/// with the same "line N: ..." status as that parse, naming the first bad
/// line in file order, and the graph then holds the lines before it and
/// nothing else. A one-thread pool, or text shorter than two chunks, is one
/// chunk parsed on the calling thread.
Status ParseNTriples(std::string_view text, Graph* graph,
                     util::ThreadPool* pool = nullptr);

/// Reads an N-Triples file from disk into `graph`, parsing it in place
/// through a FileView (mapped when it is a regular non-empty file) with
/// ParseNTriples on `pool`. The file must not be truncated or rewritten
/// while it loads: a mapped file that shrinks under the parser kills the
/// process with SIGBUS.
Status LoadNTriplesFile(const std::string& path, Graph* graph,
                        util::ThreadPool* pool = nullptr);

/// The chunks ParseNTriples cuts `text` into on a pool of `threads`
/// threads: consecutive pieces that together are `text`, each ending just
/// after a newline except the last. There is one chunk when `threads` <= 1
/// or `text` is short, and otherwise up to four per thread, of at least
/// kNTriplesMinChunkBytes bytes where the lines allow.
std::vector<std::string_view> NTriplesChunks(std::string_view text,
                                             unsigned threads);

/// The smallest chunk NTriplesChunks aims for: below it, a chunk's fixed
/// cost (a dictionary, a task, merging its common terms again) outweighs
/// its share of the parse.
inline constexpr size_t kNTriplesMinChunkBytes = 64 << 10;

/// Serializes a finalized graph as N-Triples (SPO order).
std::string WriteNTriples(const Graph& graph);

/// Writes a finalized graph to a file.
Status SaveNTriplesFile(const Graph& graph, const std::string& path);

}  // namespace shapestats::rdf
