#include "common/status.h"

namespace pmemolap {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace pmemolap
