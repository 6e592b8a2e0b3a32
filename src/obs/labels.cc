#include "obs/labels.h"

#include <utility>

#include "common/macros.h"

namespace pilote {
namespace obs {

namespace {

bool ValidLabelKey(const std::string& key) {
  if (key.empty()) return false;
  for (size_t i = 0; i < key.size(); ++i) {
    const char c = key[i];
    const bool alpha = (c >= 'a' && c <= 'z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

}  // namespace

std::string RenderLabel(const std::string& key, const std::string& value) {
  std::string out = key;
  out += "=\"";
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

// hotpath-ok: process-lifetime singleton, allocates on first call only
FamilyRegistry& FamilyRegistry::Global() {
  // Leaked so instrumentation in static destructors stays safe.
  static FamilyRegistry* registry = new FamilyRegistry();
  return *registry;
}

template <typename MetricT>
FamilyView<MetricT> FamilyRegistry::GetFamily(
    std::map<std::string, Family<MetricT>>* families, const std::string& name,
    const std::string& label_key, const std::vector<std::string>& values) {
  PILOTE_CHECK(!values.empty()) << "family " << name << " needs label values";
  PILOTE_CHECK(ValidLabelKey(label_key))
      << "family " << name << " label key '" << label_key << "'";
  auto& family = (*families)[name];
  if (family.slots.empty()) {
    family.label_key = label_key;
  } else {
    PILOTE_CHECK_EQ(family.label_key, label_key)
        << "family " << name << " registered with a different label key";
  }
  std::vector<MetricT*> slots;
  slots.reserve(values.size());
  for (const std::string& value : values) {
    MetricT* found = nullptr;
    for (auto& [slot_value, metric] : family.slots) {
      if (slot_value == value) {
        found = metric.get();
        break;
      }
    }
    if (found == nullptr) {
      PILOTE_CHECK_LT(family.slots.size(), kMaxLabelValues)
          << "family " << name << " exceeds bounded label cardinality";
      family.slots.emplace_back(value, std::make_unique<MetricT>());
      found = family.slots.back().second.get();
    }
    slots.push_back(found);
  }
  return FamilyView<MetricT>(std::move(slots));
}

CounterFamily FamilyRegistry::GetCounterFamily(
    const std::string& name, const std::string& label_key,
    const std::vector<std::string>& values) {
  MutexLock lock(mutex_);
  return GetFamily(&counters_, name, label_key, values);
}

GaugeFamily FamilyRegistry::GetGaugeFamily(
    const std::string& name, const std::string& label_key,
    const std::vector<std::string>& values) {
  MutexLock lock(mutex_);
  return GetFamily(&gauges_, name, label_key, values);
}

HistogramFamily FamilyRegistry::GetHistogramFamily(
    const std::string& name, const std::string& label_key,
    const std::vector<std::string>& values) {
  MutexLock lock(mutex_);
  return GetFamily(&histograms_, name, label_key, values);
}

void FamilyRegistry::AppendTo(MetricsSnapshot* snapshot) const {
  MutexLock lock(mutex_);
  for (const auto& [name, family] : counters_) {
    for (const auto& [value, counter] : family.slots) {
      snapshot->counters.push_back(
          {name, RenderLabel(family.label_key, value), counter->value()});
    }
  }
  for (const auto& [name, family] : gauges_) {
    for (const auto& [value, gauge] : family.slots) {
      snapshot->gauges.push_back(
          {name, RenderLabel(family.label_key, value), gauge->value()});
    }
  }
  for (const auto& [name, family] : histograms_) {
    for (const auto& [value, histogram] : family.slots) {
      snapshot->histograms.push_back(
          {name, RenderLabel(family.label_key, value), histogram->Snapshot()});
    }
  }
}

void FamilyRegistry::ResetForTesting() {
  MutexLock lock(mutex_);
  for (auto& [name, family] : counters_) {
    for (auto& [value, counter] : family.slots) counter->Reset();
  }
  for (auto& [name, family] : gauges_) {
    for (auto& [value, gauge] : family.slots) gauge->Reset();
  }
  for (auto& [name, family] : histograms_) {
    for (auto& [value, histogram] : family.slots) histogram->Reset();
  }
}

}  // namespace obs
}  // namespace pilote
