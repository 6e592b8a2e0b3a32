#include "common/failpoint.h"

#include <sstream>
#include <utility>

namespace pilote {
namespace fail {
namespace {

Status ValidateSpec(const std::string& name, const FailpointSpec& spec) {
  if (spec.code == StatusCode::kOk) {
    return Status::InvalidArgument("failpoint '" + name +
                                   "': injected code must not be kOk");
  }
  if (spec.trigger == Trigger::kProbability &&
      (spec.probability < 0.0 || spec.probability > 1.0)) {
    return Status::InvalidArgument("failpoint '" + name +
                                   "': probability must be in [0, 1]");
  }
  return Status::Ok();
}

}  // namespace

void SetEnabled(bool enabled) {
  internal::runtime_enabled.store(enabled, std::memory_order_relaxed);
}

Status Failpoint::Check() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (!armed_.load(std::memory_order_relaxed)) return Status::Ok();
  MutexLock lock(mutex_);
  // Arm may have been revoked between the relaxed load and the lock; the
  // guarded state is authoritative.
  if (!armed_.load(std::memory_order_relaxed) || exhausted_) {
    return Status::Ok();
  }
  switch (spec_.trigger) {
    case Trigger::kAlways:
      return Fire(fires_);
    case Trigger::kOnce:
      exhausted_ = true;
      return Fire(0);
    case Trigger::kProbability:
      if (rng_.Bernoulli(spec_.probability)) return Fire(fires_);
      return Status::Ok();
  }
  return Status::Ok();
}

Status Failpoint::Fire(int64_t fire_index) {
  ++fires_;
  std::ostringstream msg;
  msg << "injected fault at failpoint '" << name_ << "' (fire #"
      << (fire_index + 1) << ")";
  return Status(spec_.code, msg.str());
}

void Failpoint::Arm(const FailpointSpec& spec) {
  MutexLock lock(mutex_);
  spec_ = spec;
  exhausted_ = false;
  rng_.Reseed(spec.seed);
  armed_.store(true, std::memory_order_relaxed);
}

void Failpoint::Disarm() {
  MutexLock lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  exhausted_ = false;
}

FailpointStats Failpoint::Stats() const {
  MutexLock lock(mutex_);
  FailpointStats stats;
  stats.name = name_;
  stats.armed = armed_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.fires = fires_;
  return stats;
}

// hotpath-ok: process-lifetime singleton, allocates on first call only
FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

Failpoint& FailpointRegistry::RegisterLocked(const std::string& name) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(name, std::make_unique<Failpoint>(name)).first;
  }
  return *it->second;
}

Failpoint& FailpointRegistry::Register(const char* name) {
  MutexLock lock(mutex_);
  return RegisterLocked(name);
}

Status FailpointRegistry::Arm(const std::string& name,
                              const FailpointSpec& spec) {
  PILOTE_RETURN_IF_ERROR(ValidateSpec(name, spec));
  Failpoint* point = nullptr;
  {
    MutexLock lock(mutex_);
    point = &RegisterLocked(name);
  }
  point->Arm(spec);
  return Status::Ok();
}

void FailpointRegistry::Disarm(const std::string& name) {
  Failpoint* point = nullptr;
  {
    MutexLock lock(mutex_);
    auto it = points_.find(name);
    if (it == points_.end()) return;
    point = it->second.get();
  }
  point->Disarm();
}

void FailpointRegistry::DisarmAll() {
  std::vector<Failpoint*> points;
  {
    MutexLock lock(mutex_);
    points.reserve(points_.size());
    for (auto& [name, point] : points_) points.push_back(point.get());
  }
  for (Failpoint* point : points) point->Disarm();
}

std::vector<std::string> FailpointRegistry::Names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, point] : points_) names.push_back(name);
  return names;
}

std::vector<FailpointStats> FailpointRegistry::Stats() const {
  std::vector<const Failpoint*> points;
  {
    MutexLock lock(mutex_);
    points.reserve(points_.size());
    for (const auto& [name, point] : points_) points.push_back(point.get());
  }
  std::vector<FailpointStats> stats;
  stats.reserve(points.size());
  for (const Failpoint* point : points) stats.push_back(point->Stats());
  return stats;
}

}  // namespace fail
}  // namespace pilote
