#include "obs/query_phase.h"

#include <cstdio>

namespace shapestats::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kParse: return "parse";
    case Phase::kEncode: return "encode";
    case Phase::kAnalyze: return "analyze";
    case Phase::kStaticCheck: return "static-check";
    case Phase::kPlan: return "plan";
    case Phase::kEstimate: return "estimate";
    case Phase::kExecute: return "execute";
    case Phase::kDone: return "done";
  }
  return "?";
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kStaticEmpty: return "static-empty";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kRowCap: return "row-cap";
    case Outcome::kCancelled: return "cancelled";
    case Outcome::kError: return "error";
  }
  return "?";
}

std::string TemplateId(uint64_t hash) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "t:%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace shapestats::obs
