#ifndef PILOTE_COMMON_FAILPOINT_H_
#define PILOTE_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace pilote {
namespace fail {

// Deterministic fault injection for the crash-safety test suite.
//
// A failpoint is a named hook compiled into fallible production code:
//
//   PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("serialize/atomic/write"));
//
// In a normal process the macro costs one relaxed atomic load and a
// predictable branch (the same disabled-cost contract as obs::Enabled()
// and common/numerics_guard.h): nothing is registered, no Status is
// constructed. Test code arms failpoints by name — fire once, fire on every
// hit, or fire with a probability under a seeded RNG — and the site
// then returns the configured non-OK Status, exercising the error path
// exactly where a real fault (torn write, ENOSPC, transient learner
// unavailability) would surface.
//
// Enabling: SetEnabled(true), or ScopedFailpoints in tests; no process
// switch arms a failpoint. Sites register lazily on first execution while
// enabled, so a chaos suite that runs one clean warm-up cycle observes
// every failpoint on that cycle via FailpointRegistry::Names() and can
// iterate them exhaustively.

namespace internal {

inline std::atomic<bool> runtime_enabled{false};

}  // namespace internal

// Runtime opt-in/out; the one switch behind Enabled().
void SetEnabled(bool enabled);

inline bool Enabled() {
  return internal::runtime_enabled.load(std::memory_order_relaxed);
}

// When an armed failpoint fires.
enum class Trigger {
  kAlways,       // every hit
  kOnce,         // the first hit after arming, then never again
  kProbability,  // each hit independently with probability p (seeded RNG)
};

// Test-side configuration of one failpoint.
struct FailpointSpec {
  Trigger trigger = Trigger::kOnce;
  // kProbability: per-hit fire probability in [0, 1] and the RNG seed that
  // makes the schedule reproducible.
  double probability = 1.0;
  uint64_t seed = 0;
  // The injected error. kOk is rejected by Arm (a firing failpoint must be
  // observable).
  StatusCode code = StatusCode::kIoError;

  static FailpointSpec Once(StatusCode code = StatusCode::kIoError) {
    FailpointSpec spec;
    spec.trigger = Trigger::kOnce;
    spec.code = code;
    return spec;
  }
  static FailpointSpec Always(StatusCode code = StatusCode::kIoError) {
    FailpointSpec spec;
    spec.trigger = Trigger::kAlways;
    spec.code = code;
    return spec;
  }
  static FailpointSpec WithProbability(
      double probability, uint64_t seed,
      StatusCode code = StatusCode::kIoError) {
    FailpointSpec spec;
    spec.trigger = Trigger::kProbability;
    spec.probability = probability;
    spec.seed = seed;
    spec.code = code;
    return spec;
  }
};

// Observed activity of one failpoint since registration.
struct FailpointStats {
  std::string name;
  bool armed = false;
  int64_t hits = 0;   // evaluations while the subsystem was enabled
  int64_t fires = 0;  // hits that returned a non-OK Status
};

// One named injection site. Handles returned by the registry are stable
// for the process lifetime, so callsites cache them in function-local
// statics and reach the unarmed answer with one relaxed load.
class Failpoint {
 public:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  // OK unless armed and the trigger elects this hit.
  Status Check() PILOTE_EXCLUDES(mutex_);

  void Arm(const FailpointSpec& spec) PILOTE_EXCLUDES(mutex_);
  void Disarm() PILOTE_EXCLUDES(mutex_);

  FailpointStats Stats() const PILOTE_EXCLUDES(mutex_);

  const std::string& name() const { return name_; }

 private:
  Status Fire(int64_t fire_index) PILOTE_REQUIRES(mutex_);

  const std::string name_;
  // Fast path: unarmed sites answer with two relaxed atomics, no lock.
  std::atomic<bool> armed_{false};
  std::atomic<int64_t> hits_{0};
  mutable Mutex mutex_;
  FailpointSpec spec_ PILOTE_GUARDED_BY(mutex_);
  bool exhausted_ PILOTE_GUARDED_BY(mutex_) = false;  // kOnce already fired
  int64_t fires_ PILOTE_GUARDED_BY(mutex_) = 0;
  Rng rng_ PILOTE_GUARDED_BY(mutex_){0};
};

// Name -> failpoint map. Registration happens either at a callsite's first
// enabled execution or when a test arms a name before the site has run;
// both resolve to the same object.
class FailpointRegistry {
 public:
  static FailpointRegistry& Global();

  // Callsite path (via PILOTE_FAILPOINT): returns the stable handle for
  // `name`, creating it disarmed if unknown.
  Failpoint& Register(const char* name) PILOTE_EXCLUDES(mutex_);

  // Test path: arms `name` (registering it first if needed).
  // kInvalidArgument for a spec with code == kOk or a probability outside
  // [0, 1].
  Status Arm(const std::string& name, const FailpointSpec& spec)
      PILOTE_EXCLUDES(mutex_);

  // Disarming an unknown name is a no-op.
  void Disarm(const std::string& name) PILOTE_EXCLUDES(mutex_);
  void DisarmAll() PILOTE_EXCLUDES(mutex_);

  // Every registered failpoint name, sorted. The chaos suite iterates this
  // after a clean warm-up cycle so a newly added failpoint on the covered
  // paths cannot silently go untested.
  std::vector<std::string> Names() const PILOTE_EXCLUDES(mutex_);

  // Sorted by name; obs::CaptureSnapshot merges these into the metrics
  // snapshot, whose "failpoints" object is the chaos run's fault record.
  std::vector<FailpointStats> Stats() const PILOTE_EXCLUDES(mutex_);

 private:
  FailpointRegistry() = default;

  Failpoint& RegisterLocked(const std::string& name)
      PILOTE_REQUIRES(mutex_);

  // The map is guarded; the pointees it owns are internally synchronized
  // failpoints whose handles legitimately outlive the lock.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Failpoint>> points_
      PILOTE_GUARDED_BY(mutex_);
};

// Test helper: enables the subsystem for a scope and disarms every
// failpoint (and restores the previous runtime flag) on exit, so one
// chaos case cannot leak an armed fault into the next.
class ScopedFailpoints {
 public:
  ScopedFailpoints()
      : previous_(internal::runtime_enabled.load(std::memory_order_relaxed)) {
    SetEnabled(true);
  }
  ~ScopedFailpoints() {
    FailpointRegistry::Global().DisarmAll();
    SetEnabled(previous_);
  }

  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;

 private:
  bool previous_;
};

}  // namespace fail
}  // namespace pilote

// Evaluates to a Status: OK unless the named failpoint is armed and fires.
// `name` must be a string literal (one registration per site). Never
// discard the result — propagate it (PILOTE_RETURN_IF_ERROR) or branch on
// it; tools/pilote_lint.py --stage concurrency rejects a bare
// `PILOTE_FAILPOINT(...);` statement.
#define PILOTE_FAILPOINT(name)                                            \
  (!::pilote::fail::Enabled()                                             \
       ? ::pilote::Status::Ok()                                           \
       : []() -> ::pilote::Status {                                       \
           static ::pilote::fail::Failpoint& pilote_fp_site =             \
               ::pilote::fail::FailpointRegistry::Global().Register(name);\
           return pilote_fp_site.Check();                                 \
         }())

#endif  // PILOTE_COMMON_FAILPOINT_H_
