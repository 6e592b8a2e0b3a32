#include "common/numerics_guard.h"

#include <cstdlib>

#include "common/macros.h"

namespace pilote {
namespace numerics {
namespace internal {

void FailNonFinite(const char* op, const std::string& shape, int64_t index,
                   float value, const char* file, int line) {
  ::pilote::internal::CheckFailure(file, line, "numerics guard")
      << "non-finite value " << value << " produced by [" << op
      << "] shape=" << shape << " at flat index " << index;
  // CheckFailure aborts in its destructor; this is unreachable but keeps
  // the [[noreturn]] contract visible to the compiler.
  std::abort();
}

}  // namespace internal
}  // namespace numerics
}  // namespace pilote
