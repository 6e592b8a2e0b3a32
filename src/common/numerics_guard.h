#ifndef PILOTE_COMMON_NUMERICS_GUARD_H_
#define PILOTE_COMMON_NUMERICS_GUARD_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>

namespace pilote {
namespace numerics {

// Poison-checking for NaN/Inf at tensor op boundaries.
//
// Checks are inserted where numerical corruption is born (division, exp,
// sqrt, matrix products, loss forward/backward, optimizer steps) via
// PILOTE_GUARD_NUMERICS below. On the first non-finite value the process
// aborts with the producing op, the tensor shape, and the offending
// element, so a NaN in e.g. the joint distillation loss is attributed to
// the op that created it instead of surfacing epochs later as a corrupted
// prototype.
//
// Two activation modes:
//   - Compile-time: -DPILOTE_DEBUG_NUMERICS=ON bakes the checks in
//     unconditionally (the debug-numerics build preset).
//   - Runtime: SetEnabled(true) flips checks on in any build. Off by
//     default; the disabled cost is one relaxed atomic load and a
//     predictable branch per guarded op.

namespace internal {

inline std::atomic<bool> runtime_enabled{false};

// Aborts via the PILOTE_CHECK failure machinery with a report naming the
// producing op, the tensor shape, and the first corrupted element.
[[noreturn]] void FailNonFinite(const char* op, const std::string& shape,
                                int64_t index, float value, const char* file,
                                int line);

}  // namespace internal

inline void SetEnabled(bool enabled) {
  internal::runtime_enabled.store(enabled, std::memory_order_relaxed);
}

inline bool Enabled() {
#ifdef PILOTE_DEBUG_NUMERICS
  return true;
#else
  return internal::runtime_enabled.load(std::memory_order_relaxed);
#endif
}

// Scans t for NaN/Inf and aborts with attribution on the first hit.
// TensorT is any type with data()/numel()/shape().ToString() (templated so
// common/ stays below tensor/ in the layering).
template <typename TensorT>
void CheckFinite(const char* op, const TensorT& t, const char* file,
                 int line) {
  const float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(p[i])) {
      internal::FailNonFinite(op, t.shape().ToString(), i, p[i], file, line);
    }
  }
}

// Scalar (e.g. reduction result) variant.
inline void CheckFiniteScalar(const char* op, float value, const char* file,
                              int line) {
  if (!std::isfinite(value)) {
    internal::FailNonFinite(op, "scalar", 0, value, file, line);
  }
}

}  // namespace numerics
}  // namespace pilote

// Guards a tensor-valued op boundary. `op` names the producer in the abort
// report; keep it specific ("Div output", "Adam step param", ...).
#define PILOTE_GUARD_NUMERICS(op, tensor)                                 \
  do {                                                                    \
    if (::pilote::numerics::Enabled()) {                                  \
      ::pilote::numerics::CheckFinite((op), (tensor), __FILE__, __LINE__); \
    }                                                                     \
  } while (0)

#define PILOTE_GUARD_NUMERICS_SCALAR(op, value)                        \
  do {                                                                 \
    if (::pilote::numerics::Enabled()) {                               \
      ::pilote::numerics::CheckFiniteScalar((op), (value), __FILE__,   \
                                            __LINE__);                 \
    }                                                                  \
  } while (0)

#endif  // PILOTE_COMMON_NUMERICS_GUARD_H_
