#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace shapestats {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "Ok";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kParseError: return "ParseError";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kOutOfRange: return "OutOfRange";
    case StatusCode::kIOError: return "IOError";
    case StatusCode::kUnsupported: return "Unsupported";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kAborted: return "Aborted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "Ok";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void AbortWithStatus(const Status& status) {
  std::fprintf(stderr, "Fatal: accessed value of failed Result: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace shapestats
