#include "common/cancel.h"

namespace spanners {

Status CancelToken::ToStatus() const {
  switch (reason()) {
    case Reason::kNone:
      return Status::OK();
    case Reason::kCancelled:
      return Status::Cancelled("operation cancelled");
    case Reason::kDeadline:
      return Status::DeadlineExceeded("operation passed its deadline");
    case Reason::kResourceExhausted:
      return Status::ResourceExhausted(
          "evaluation exceeded its memory budget (peak arena bytes: " +
          std::to_string(peak_arena_bytes()) + ")");
  }
  return Status::Internal("unknown cancel reason");
}

}  // namespace spanners
