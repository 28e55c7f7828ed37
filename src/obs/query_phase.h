// The vocabulary of one query's lifecycle, shared by every telemetry sink:
// the phases a query passes through (one name table for the QueryTrace
// phase spans, the registry's live phase, the event log and the Chrome
// trace) and the outcome it ends with.
#pragma once

#include <cstdint>
#include <string>

namespace shapestats::obs {

/// Engine phases in execution order. kDone marks a completed registry
/// record; it is never a timed span.
enum class Phase : uint8_t {
  kParse,
  kEncode,
  kAnalyze,
  kStaticCheck,
  kPlan,
  kEstimate,
  kExecute,
  kDone,
};

/// "parse", "encode", "analyze", "static-check", "plan", "estimate",
/// "execute", "done".
const char* PhaseName(Phase phase);

/// How a query ended. The truncations (kTimeout, kRowCap, kCancelled) mark
/// answers cut short by a limit; kError is a query that failed before its
/// finish path.
enum class Outcome : uint8_t {
  kOk,
  kStaticEmpty,  // proven empty by the static checker, not executed
  kTimeout,
  kRowCap,
  kCancelled,
  kError,
};

/// "ok", "static-empty", "timeout", "row-cap", "cancelled", "error".
const char* OutcomeName(Outcome outcome);

inline bool IsTruncation(Outcome outcome) {
  return outcome == Outcome::kTimeout || outcome == Outcome::kRowCap ||
         outcome == Outcome::kCancelled;
}

/// A plan-cache template id as logs, EXPLAIN and the registry print it:
/// "t:" and the 64-bit template hash in 16 hex digits.
std::string TemplateId(uint64_t hash);

}  // namespace shapestats::obs
