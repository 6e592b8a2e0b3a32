#ifndef PILOTE_CORE_EDGE_LEARNER_H_
#define PILOTE_CORE_EDGE_LEARNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/hot_path.h"
#include "core/cloud.h"
#include "core/config.h"
#include "core/ncm_classifier.h"
#include "core/support_set.h"
#include "data/dataset.h"
#include "exec/plan.h"

namespace pilote {
namespace core {

// Base of the edge-side learners the paper compares (Sec 6.1.3).
// MakeEdgeLearner (below) is the only way to build one: it deserializes
// the cloud artifact's model payload (modeling the transfer), and the
// learner rebuilds the class prototypes and is immediately ready for
// inference. LearnNewClasses integrates a batch of new-class samples; each
// strategy implements the paper's corresponding update.
//
// Thread-safety contract (what the serving layer's locks enforce through
// the type system): every const member is a pure read and safe to call
// concurrently with other const members; every mutation goes through a
// named non-const operation (CommitNewClasses, ApplySupportSetUpdate,
// EnforceSupportBudget, AdaptPrototype, RebuildPrototypes) that requires
// exclusive access. A const Predict writes only its own output and the
// calling thread's replay arena (exec/executor.h), so concurrent
// predictions all run the compiled plan. An update trains aside
// (StageNewClasses is const) and only its O(1) commit is a mutation.
//
// Inference runs through a compiled plan (exec::InferencePlan) captured
// from the scaler + backbone + NCM tail for every completed mutation and
// published with the state it was captured from, version-tagged with
// model_version(). A failed capture leaves no plan and predictions run
// the eager tape, never a stale plan. The eager tape runs only while no
// plan is live: after a failed capture, or after
// SetCompiledInferenceEnabled(false).
class EdgeLearner {
 public:
  virtual ~EdgeLearner() = default;

  EdgeLearner(const EdgeLearner&) = delete;
  EdgeLearner& operator=(const EdgeLearner&) = delete;

  // Every member an incremental update may change.
  struct State {
    std::unique_ptr<nn::MlpBackbone> model;
    SupportSet support;
    NcmClassifier classifier;
    std::vector<int> known_classes;
    Rng rng;
  };

  // An update trained aside by StageNewClasses: the staged state, with its
  // prototypes rebuilt and its plan captured at `version`.
  struct StagedUpdate {
    State state;
    std::shared_ptr<const exec::InferencePlan> plan;
    int64_t version = 0;
    TrainReport report;
  };

  // Integrates `d_new` (raw feature rows of previously unseen classes, the
  // D_n of Algo 1; Figure 7 sweeps its size): StageNewClasses, then
  // CommitNewClasses. Returns the training report (empty for the
  // pre-trained baseline, which does not train). A non-OK return leaves
  // the learner untouched, so a failed update can simply be retried.
  Result<TrainReport> LearnNewClasses(const data::Dataset& d_new);

  // Validates `d_new` (kInvalidArgument for an empty batch or a known
  // class), runs the strategy body (DoLearnNewClasses) on a deep copy of
  // the state, rebuilds its prototypes and captures its plan. A pure read
  // of the live learner, so predictions may run concurrently.
  // Failpoints: "core/learn/begin", "core/learn/mid", "core/learn/commit".
  Result<StagedUpdate> StageNewClasses(const data::Dataset& d_new) const;

  // Swaps the staged state and plan in and publishes their version: O(1),
  // exclusive access. CHECKs that nothing else changed the learner since
  // the stage. `update` is left holding the old state, so the caller
  // decides where it is freed.
  void CommitNewClasses(StagedUpdate& update);

  // NCM inference on raw feature rows.
  PILOTE_HOT_PATH std::vector<int> Predict(const Tensor& raw_features) const;
  // Batched inference entry point for the serving layer: the same path
  // and labels as Predict (the embedding and NCM stages are
  // row-independent), traced apart as core/predict_batch. One call costs
  // one scaler pass, one backbone forward (a single GEMM chain for all K
  // rows) and one NCM pass.
  PILOTE_HOT_PATH std::vector<int> PredictBatch(const Tensor& raw_features) const;
  // Accuracy on a raw-feature test set.
  double Evaluate(const data::Dataset& raw_test) const;

  // Embeds raw feature rows (scaling + model forward).
  Tensor EmbedRaw(const Tensor& raw_features) const;

  const NcmClassifier& classifier() const { return state_.classifier; }
  const SupportSet& support() const { return state_.support; }
  const nn::MlpBackbone& model() const { return *state_.model; }
  const std::vector<int>& known_classes() const {
    return state_.known_classes;
  }
  const PiloteConfig& config() const { return config_; }

  // Model footprint, exposed so profiling never needs mutable model access.
  int64_t ModelParameters() const;
  // Parameters + buffers, float32.
  int64_t ModelStateBytes() const;

  // Incremented on every completed mutation (prototype rebuild). Lets the
  // serving layer detect that a learner changed between two batches.
  int64_t model_version() const {
    return model_version_.load(std::memory_order_relaxed);
  }

  // Version the live compiled plan was captured at, or -1 when inference
  // is running eagerly (capture disabled, unsupported metric, or no
  // classes yet). Equals model_version() whenever a plan is live.
  int64_t plan_version() const { return plan_ ? plan_->version() : -1; }
  // The live compiled plan, or nullptr when predictions run eagerly.
  // Shared so tests can replay it directly.
  std::shared_ptr<const exec::InferencePlan> inference_plan() const {
    return plan_;
  }
  // Toggles compiled inference (on by default). Disabling drops the plan
  // and pins every Predict to the eager path; re-enabling recaptures.
  void SetCompiledInferenceEnabled(bool enabled);

  // Replaces the support set (e.g. with a quantize round-tripped cache
  // modeling compressed storage) and refreshes the prototypes. The new
  // classifier is built aside and swapped in only on success: a rejected
  // update (wrong exemplar width, empty class, injected fault) leaves the
  // live support set and prototypes untouched.
  // Failpoints: "core/support_update/begin", "core/support_update/embed".
  Status ApplySupportSetUpdate(SupportSet support);

  // Enforces a total cache budget of `cache_size` exemplars (Algo 1 line 1:
  // m = K / num_classes per class) and refreshes the prototypes.
  void EnforceSupportBudget(int64_t cache_size);

  // On-device personalization (lifelong prototypical adaptation in the
  // spirit of arXiv:2203.05692): blends the prototype of `label` toward
  // the mean embedding of the caller's raw rows,
  //   mu <- (1 - rate) * mu + rate * mean(phi(rows)),
  // leaving the support set and model weights untouched — a fleet-shared
  // artifact is nudged toward one user's distribution, and
  // RebuildPrototypes() (or any model update) re-derives the shared
  // prototypes, undoing the personalization. A named mutation like
  // LearnNewClasses: requires exclusive access, bumps model_version() and
  // recaptures the compiled plan. kInvalidArgument: unknown label, empty
  // rows, feature-width mismatch, or rate outside (0, 1].
  Status AdaptPrototype(int label, const Tensor& raw_features, double rate);

  // Re-embeds every support-set class and refreshes all prototypes
  // (required after any model update).
  void RebuildPrototypes();

 protected:
  // Adopts the backbone MakeEdgeLearner deserialized from
  // `artifact.model_payload`, so a corrupt payload has already come back
  // as a Status. `model` must match `artifact.backbone_config`.
  EdgeLearner(std::unique_ptr<nn::MlpBackbone> model,
              const CloudArtifact& artifact, const PiloteConfig& config);

  // Strategy body, called by StageNewClasses with the already-scaled new
  // data and the staged copy of the state, which it may mutate freely.
  virtual Result<TrainReport> DoLearnNewClasses(
      const data::Dataset& scaled_new, State& state) const = 0;

  // Adds new-class rows to `state`'s support set: keeps up to
  // config.exemplars_per_class rows per class, chosen uniformly at random
  // as in the paper ("enriches the support set with random new-class
  // data"), and registers the classes as known.
  void EnrichSupportSet(const data::Dataset& scaled_new, State& state) const;

  PiloteConfig config_;
  data::StandardScaler scaler_;

 private:
  friend Result<std::unique_ptr<EdgeLearner>> MakeEdgeLearner(
      const std::string& strategy, const CloudArtifact& artifact,
      const PiloteConfig& config);

  // The compiled plan of `state` (scaler + model + classifier), tagged
  // `version`; nullptr (eager fallback) when compiled inference is off,
  // there are no classes yet, or the capture failed.
  std::shared_ptr<const exec::InferencePlan> CapturePlan(
      const State& state, int64_t version) const;
  // Labels for raw feature rows: the compiled plan when one is live, the
  // eager tape otherwise. Predict and PredictBatch both run through here.
  PILOTE_HOT_PATH std::vector<int> PredictLabels(
      const Tensor& raw_features) const;

  State state_;
  std::atomic<int64_t> model_version_{0};
  bool compiled_inference_enabled_ = true;
  std::shared_ptr<const exec::InferencePlan> plan_;
};

// Validates that `artifact` can seed an edge learner under `config`: the
// artifact's backbone config equals config.backbone (input, hidden and
// embedding widths, batch norm), the scaler and every exemplar are as
// wide as the backbone input, and the support set is non-empty. Returns
// kInvalidArgument describing the first violation.
Status ValidateArtifact(const CloudArtifact& artifact,
                        const PiloteConfig& config);

// The one way to build a learner from a cloud artifact. Strategies by
// name: "pretrained" (no edge training, new classes only get prototypes),
// "retrained" (contrastive fine-tuning with no forgetting
// counter-measure), "pilote" (Algo 1, edge part) and "gdumb" (balanced
// cache, retrained from scratch); edge_learner.cc documents each.
// Returns kInvalidArgument for unknown names or an artifact that fails
// ValidateArtifact, and the deserialization Status (kDataLoss) for a
// corrupt model payload: the device-facing entry point never aborts on a
// bad cloud transfer.
Result<std::unique_ptr<EdgeLearner>> MakeEdgeLearner(
    const std::string& strategy, const CloudArtifact& artifact,
    const PiloteConfig& config);

}  // namespace core
}  // namespace pilote

#endif  // PILOTE_CORE_EDGE_LEARNER_H_
