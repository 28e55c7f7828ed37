// Answer checking for the shapestats benchmark. Every answer is compared
// against an oracle computed outside the timing: the streaming INLJ
// executor on a plan built without the plan cache or the static checker,
// with no timeout or row cap. Result flags are not trusted — a truncated
// answer fails the check whether or not it says so.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "sparql/query.h"
#include "util/status.h"

namespace shapestats::shapebench {

using Row = std::vector<rdf::TermId>;

/// One query's answer, whichever path produced it.
struct Answer {
  enum class Kind : uint8_t { kRows, kCount, kAsk };
  Kind kind = Kind::kRows;
  bool ask = false;
  uint64_t count = 0;
  std::vector<std::string> vars;
  std::vector<Row> rows;
  bool truncated = false;  // the producer flagged a timeout or cancellation
};

/// Normalizes an engine result (moves the rows out of `r`).
Answer FromEngine(const sparql::ParsedQuery& q, engine::QueryResult&& r);

/// What a correct answer must look like.
struct Expected {
  /// Exact-answer digest; rows compare as a multiset unless the query has
  /// ORDER BY, in which case their order counts too.
  uint64_t digest = 0;
  /// LIMIT / OFFSET without ORDER BY admits any `rows` rows of the full
  /// answer: the check is sub-multiset inclusion in `full` (sorted).
  bool subset = false;
  uint64_t rows = 0;
  std::vector<Row> full;
};

uint64_t Digest(const sparql::ParsedQuery& q, const Answer& a);

/// True when `a` is a correct answer. Sorts `a.rows` for subset checks.
bool Matches(const sparql::ParsedQuery& q, const Expected& e, Answer& a);

/// Computes the oracle answer for `text` over the engine's graph and
/// statistics.
Result<Expected> Oracle(const engine::QueryEngine& engine,
                        const std::string& text);

}  // namespace shapestats::shapebench
