#ifndef PILOTE_OBS_LABELS_H_
#define PILOTE_OBS_LABELS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace pilote {
namespace obs {

// Labeled metric families: one metric name fanned out over a small, bounded
// set of label values (shard id, pipeline stage, degrade reason, ...).
//
// The contract mirrors obs/metrics.h: resolving a family takes a mutex once
// per site, after which recording through the returned view is lock-free and
// allocation-free (the view holds raw pointers to process-lifetime metric
// objects, indexed by the position of the label value in the caller's
// request). Cardinality is enforced at registration: a family may hold at
// most kMaxLabelValues distinct values, so the exporter's output size and
// the registry's memory stay bounded no matter what traffic does. Label
// VALUES are fixed at registration — there is deliberately no record-time
// "get or create" path, which is how unbounded-cardinality bugs happen.
//
// Different call sites may register the same family with different value
// subsets (e.g. two SessionManagers with different shard counts); values
// accumulate in the family-wide pool, every requester gets a view over
// exactly the values it asked for, and the label KEY must match across
// registrations (checked).

// Bound on distinct label values per family. Generous for the intended
// dimensions (shards, stages, degrade reasons, model versions) while keeping
// a full snapshot trivially small.
inline constexpr size_t kMaxLabelValues = 64;

// Pre-resolved view over one family's metric slots. At(i) corresponds to
// the i-th label value passed at registration. Copyable; the pointees are
// owned by the registry and live for the process lifetime.
template <typename MetricT>
class FamilyView {
 public:
  FamilyView() = default;
  explicit FamilyView(std::vector<MetricT*> slots)
      : slots_(std::move(slots)) {}

  MetricT& At(size_t i) const {
    PILOTE_DCHECK(i < slots_.size());
    return *slots_[i];
  }
  size_t size() const { return slots_.size(); }

 private:
  std::vector<MetricT*> slots_;
};

using CounterFamily = FamilyView<Counter>;
using GaugeFamily = FamilyView<Gauge>;
using HistogramFamily = FamilyView<Histogram>;

// Registry of labeled families, separate from MetricsRegistry so the plain
// registry keeps zero knowledge of labels. Snapshots render each slot as a
// sample carrying the family name plus `key="value"` labels.
class FamilyRegistry {
 public:
  static FamilyRegistry& Global();

  // Resolves (or registers) a family and returns a view whose slot i maps
  // to values[i]. CHECK-fails on: empty values, a label key mismatch with a
  // prior registration of `name`, or the family exceeding kMaxLabelValues
  // distinct values. `name` follows the metric naming scheme; `label_key`
  // is a Prometheus-style label name ([a-z_][a-z0-9_]*).
  CounterFamily GetCounterFamily(const std::string& name,
                                 const std::string& label_key,
                                 const std::vector<std::string>& values)
      PILOTE_EXCLUDES(mutex_);
  GaugeFamily GetGaugeFamily(const std::string& name,
                             const std::string& label_key,
                             const std::vector<std::string>& values)
      PILOTE_EXCLUDES(mutex_);
  HistogramFamily GetHistogramFamily(const std::string& name,
                                     const std::string& label_key,
                                     const std::vector<std::string>& values)
      PILOTE_EXCLUDES(mutex_);

  // Appends every family slot to `snapshot` as labeled samples, in
  // deterministic (name, value-registration) order.
  void AppendTo(MetricsSnapshot* snapshot) const PILOTE_EXCLUDES(mutex_);

  // Zeroes every slot IN PLACE; views stay valid (same contract as
  // MetricsRegistry::ResetForTesting).
  void ResetForTesting() PILOTE_EXCLUDES(mutex_);

 private:
  template <typename MetricT>
  struct Family {
    std::string label_key;
    // Registration-ordered; looked up linearly (families are tiny).
    std::vector<std::pair<std::string, std::unique_ptr<MetricT>>> slots;
  };

  FamilyRegistry() = default;

  template <typename MetricT>
  FamilyView<MetricT> GetFamily(
      std::map<std::string, Family<MetricT>>* families,
      const std::string& name, const std::string& label_key,
      const std::vector<std::string>& values) PILOTE_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, Family<Counter>> counters_ PILOTE_GUARDED_BY(mutex_);
  std::map<std::string, Family<Gauge>> gauges_ PILOTE_GUARDED_BY(mutex_);
  std::map<std::string, Family<Histogram>> histograms_
      PILOTE_GUARDED_BY(mutex_);
};

// Renders `key="value"` (value backslash-escaped) — the `labels` string
// stored on samples; the JSON writers key a labeled series as
// `name{key="value"}`.
std::string RenderLabel(const std::string& key, const std::string& value);

}  // namespace obs
}  // namespace pilote

#endif  // PILOTE_OBS_LABELS_H_
