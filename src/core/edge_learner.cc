#include "core/edge_learner.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/embedding.h"
#include "data/splits.h"
#include "eval/metrics.h"
#include "exec/executor.h"
#include "exec/plan_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serialize/io.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace core {
namespace {

// Holds out a validation share of the tiny new-class set when it is large
// enough (paper: 0.2 validation split); otherwise validates on the
// training rows (the early-stop rule then acts as a plateau detector).
struct NewDataSplit {
  data::Dataset train;
  data::Dataset val;
};

NewDataSplit SplitNewData(const data::Dataset& scaled_new,
                          double validation_fraction, Rng& rng) {
  bool splittable = true;
  for (const auto& [label, count] : scaled_new.ClassCounts()) {
    if (count < 10) splittable = false;
  }
  if (splittable && validation_fraction > 0.0) {
    data::TrainTestSplit split =
        data::StratifiedSplit(scaled_new, validation_fraction, rng);
    return {std::move(split.train), std::move(split.test)};
  }
  return {scaled_new, scaled_new};
}

// Prototypes of every support-set class under `model`.
NcmClassifier PrototypesOf(nn::MlpBackbone& model, const SupportSet& support) {
  NcmClassifier classifier;
  for (int label : support.Classes()) {
    classifier.SetPrototypeFromEmbeddings(
        label, EmbedBatched(model, support.ClassExemplars(label)));
  }
  return classifier;
}

}  // namespace

EdgeLearner::EdgeLearner(std::unique_ptr<nn::MlpBackbone> model,
                         const CloudArtifact& artifact,
                         const PiloteConfig& config)
    : config_(config),
      scaler_(artifact.scaler),
      state_{std::move(model), artifact.support, NcmClassifier(),
             artifact.old_classes, Rng(config.seed ^ 0x9E3779B97F4A7C15ULL)} {
  PILOTE_CHECK(state_.model != nullptr);
  state_.model->SetTraining(false);
  RebuildPrototypes();
}

Tensor EdgeLearner::EmbedRaw(const Tensor& raw_features) const {
  return EmbedBatched(*state_.model, scaler_.Transform(raw_features));
}

std::vector<int> EdgeLearner::PredictLabels(
    const Tensor& raw_features) const {
  if (plan_ == nullptr) {
    PILOTE_METRIC_COUNT("exec/fallback_windows", raw_features.rows());
    return state_.classifier.Predict(EmbedRaw(raw_features));
  }
  // Every mutation publishes its plan with its version, so a live plan
  // always matches model_version().
  PILOTE_DCHECK(plan_->version() == model_version());
  // hotpath-ok: the per-call output labels
  std::vector<int> labels;
  exec::ReplayClassify(*plan_, raw_features, &labels);
  PILOTE_METRIC_COUNT("core/ncm_predictions", raw_features.rows());
  PILOTE_METRIC_COUNT("exec/plan_windows", raw_features.rows());
  return labels;
}

std::vector<int> EdgeLearner::Predict(const Tensor& raw_features) const {
  PILOTE_TRACE_SPAN("core/predict");
  return PredictLabels(raw_features);
}

std::vector<int> EdgeLearner::PredictBatch(const Tensor& raw_features) const {
  PILOTE_TRACE_SPAN("core/predict_batch");
  return PredictLabels(raw_features);
}

double EdgeLearner::Evaluate(const data::Dataset& raw_test) const {
  PILOTE_CHECK(!raw_test.empty());
  return eval::Accuracy(Predict(raw_test.features()), raw_test.labels());
}

int64_t EdgeLearner::ModelParameters() const {
  return state_.model->NumParameters();
}

int64_t EdgeLearner::ModelStateBytes() const {
  int64_t state_elements = 0;
  for (const Tensor* tensor : state_.model->StateTensors()) {
    state_elements += tensor->numel();
  }
  return state_elements * static_cast<int64_t>(sizeof(float));
}

std::shared_ptr<const exec::InferencePlan> EdgeLearner::CapturePlan(
    const State& state, int64_t version) const {
  if (!compiled_inference_enabled_) return nullptr;
  if (state.classifier.NumClasses() == 0) return nullptr;
  auto failed = [](const char* step, const Status& status) {
    PILOTE_METRIC_COUNT("exec/capture_failures", 1);
    PILOTE_LOG(Warning) << step << " failed (eager fallback): "
                        << status.ToString();
    return std::shared_ptr<const exec::InferencePlan>();
  };

  exec::PlanBuilder builder;
  exec::ValueRef x = builder.DeclareInput(state.model->input_dim());
  x = builder.Standardize(x, scaler_.mean(), scaler_.stddev());
  Status captured = state.model->CaptureInference(builder, x);
  if (!captured.ok()) return failed("inference plan capture", captured);
  builder.MarkOutput(x);
  Status tail = state.classifier.CapturePredict(builder, x);
  if (!tail.ok()) return failed("classify-tail capture", tail);
  Result<std::shared_ptr<const exec::InferencePlan>> plan =
      builder.Finish(version);
  if (!plan.ok()) return failed("inference plan finish", plan.status());
  PILOTE_METRIC_COUNT("exec/plan_rebuilds", 1);
  return std::move(plan).value();
}

void EdgeLearner::SetCompiledInferenceEnabled(bool enabled) {
  compiled_inference_enabled_ = enabled;
  plan_ = CapturePlan(state_, model_version());
}

Result<TrainReport> EdgeLearner::LearnNewClasses(const data::Dataset& d_new) {
  PILOTE_ASSIGN_OR_RETURN(StagedUpdate update, StageNewClasses(d_new));
  CommitNewClasses(update);
  return update.report;
}

Result<EdgeLearner::StagedUpdate> EdgeLearner::StageNewClasses(
    const data::Dataset& d_new) const {
  PILOTE_TRACE_SPAN("core/stage_new_classes");
  if (d_new.empty()) {
    return Status::InvalidArgument("LearnNewClasses: d_new is empty");
  }
  for (int label : d_new.Classes()) {
    if (state_.support.HasClass(label)) {
      return Status::InvalidArgument("LearnNewClasses: class " +
                                     std::to_string(label) +
                                     " already known");
    }
  }
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/learn/begin"));

  StagedUpdate update{State{state_.model->Clone(), state_.support,
                            state_.classifier, state_.known_classes,
                            state_.rng},
                      /*plan=*/nullptr, model_version() + 1, TrainReport{}};
  State& staged = update.state;
  PILOTE_ASSIGN_OR_RETURN(update.report,
                          DoLearnNewClasses(scaler_.Transform(d_new), staged));
  staged.classifier = PrototypesOf(*staged.model, staged.support);
  update.plan = CapturePlan(staged, update.version);
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/learn/commit"));
  return update;
}

void EdgeLearner::CommitNewClasses(StagedUpdate& update) {
  PILOTE_CHECK_EQ(update.version, model_version() + 1)
      << "the learner changed since this update was staged";
  std::swap(state_, update.state);
  std::swap(plan_, update.plan);
  model_version_.store(update.version, std::memory_order_relaxed);
}

Status EdgeLearner::ApplySupportSetUpdate(SupportSet support) {
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/support_update/begin"));
  const int64_t input_dim = state_.model->input_dim();
  for (int label : support.Classes()) {
    const Tensor& exemplars = support.ClassExemplars(label);
    if (exemplars.rows() == 0) {
      return Status::InvalidArgument("support update: class " +
                                     std::to_string(label) +
                                     " has no exemplars");
    }
    if (exemplars.cols() != input_dim) {
      return Status::InvalidArgument(
          "support update: class " + std::to_string(label) +
          " feature width " + std::to_string(exemplars.cols()) +
          " does not match backbone " + std::to_string(input_dim));
    }
  }
  // Build the replacement prototypes aside; the live classifier is only
  // swapped once they are complete.
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/support_update/embed"));
  state_.classifier = PrototypesOf(*state_.model, support);
  state_.support = std::move(support);
  model_version_.fetch_add(1, std::memory_order_relaxed);
  plan_ = CapturePlan(state_, model_version());
  return Status::Ok();
}

Status EdgeLearner::AdaptPrototype(int label, const Tensor& raw_features,
                                   double rate) {
  PILOTE_TRACE_SPAN("core/adapt_prototype");
  if (!state_.classifier.HasPrototype(label)) {
    return Status::InvalidArgument("AdaptPrototype: unknown class " +
                                   std::to_string(label));
  }
  if (raw_features.rank() != 2 || raw_features.rows() == 0) {
    return Status::InvalidArgument(
        "AdaptPrototype: need a non-empty [n, d] row matrix");
  }
  if (raw_features.cols() != state_.model->input_dim()) {
    return Status::InvalidArgument(
        "AdaptPrototype: feature width " +
        std::to_string(raw_features.cols()) + " does not match backbone " +
        std::to_string(state_.model->input_dim()));
  }
  if (!(rate > 0.0 && rate <= 1.0)) {
    return Status::InvalidArgument("AdaptPrototype: rate " +
                                   std::to_string(rate) +
                                   " outside (0, 1]");
  }
  const Tensor embeddings = EmbedRaw(raw_features);
  const Tensor& current = state_.classifier.prototype(label);
  Tensor blended(current.shape());
  const int64_t dim = embeddings.cols();
  const float keep = static_cast<float>(1.0 - rate);
  const float pull = static_cast<float>(rate);
  const float inv_rows = 1.0f / static_cast<float>(embeddings.rows());
  for (int64_t d = 0; d < dim; ++d) {
    float mean = 0.0f;
    for (int64_t r = 0; r < embeddings.rows(); ++r) {
      mean += embeddings(r, d);
    }
    mean *= inv_rows;
    blended[d] = keep * current[d] + pull * mean;
  }
  state_.classifier.SetPrototype(label, std::move(blended));
  model_version_.fetch_add(1, std::memory_order_relaxed);
  plan_ = CapturePlan(state_, model_version());
  PILOTE_METRIC_COUNT("core/prototype_adaptations", 1);
  return Status::Ok();
}

void EdgeLearner::EnforceSupportBudget(int64_t cache_size) {
  state_.support.EnforceCacheSize(cache_size);
  RebuildPrototypes();
}

void EdgeLearner::RebuildPrototypes() {
  state_.classifier = PrototypesOf(*state_.model, state_.support);
  model_version_.fetch_add(1, std::memory_order_relaxed);
  plan_ = CapturePlan(state_, model_version());
}

void EdgeLearner::EnrichSupportSet(const data::Dataset& scaled_new,
                                   State& state) const {
  PILOTE_TRACE_SPAN("core/enrich_support_set");
  for (int label : scaled_new.Classes()) {
    PILOTE_CHECK(!state.support.HasClass(label))
        << "class " << label << " already known";
    data::Dataset class_rows = scaled_new.FilterByClass(label);
    data::Dataset sampled =
        data::SampleRows(class_rows, config_.exemplars_per_class, state.rng);
    state.support.SetClassExemplars(label, sampled.features());
    state.known_classes.push_back(label);
    PILOTE_METRIC_COUNT("core/classes_ingested", 1);
    PILOTE_METRIC_COUNT("core/exemplars_cached", sampled.size());
  }
  std::sort(state.known_classes.begin(), state.known_classes.end());
}

namespace {

// Baseline 1 (Sec 6.1.3): the pre-trained model is used as-is; new classes
// only get prototypes from their (random) exemplars. No edge training.
class PretrainedLearner final : public EdgeLearner {
 public:
  using EdgeLearner::EdgeLearner;

 protected:
  Result<TrainReport> DoLearnNewClasses(
      const data::Dataset& scaled_new, State& state) const override;
};

// Baseline 2 (Sec 6.1.3, Table 2's "without considering the catastrophic
// forgetting problem"): the pre-trained model is fine-tuned with the same
// incremental contrastive training as PILOTE, but with every forgetting
// counter-measure removed (no distillation, free batch-norm statistics,
// no anchoring of the old pair side).
class RetrainedLearner final : public EdgeLearner {
 public:
  using EdgeLearner::EdgeLearner;

 protected:
  Result<TrainReport> DoLearnNewClasses(
      const data::Dataset& scaled_new, State& state) const override;
};

// PILOTE (Algo 1, edge part): joint distillation + contrastive objective
// over the reduced pair set (old x new cross pairs plus new x new pairs).
class PiloteLearner final : public EdgeLearner {
 public:
  using EdgeLearner::EdgeLearner;

 protected:
  Result<TrainReport> DoLearnNewClasses(
      const data::Dataset& scaled_new, State& state) const override;
};

// Extra continual-learning baseline from the paper's related work
// (Prabhu et al., ECCV 2020): GDumb keeps a greedily balanced exemplar
// cache and, whenever queried, retrains the model FROM SCRATCH on the
// cache alone. It questions whether incremental methods beat the dumb
// strategy; here it inherits the siamese/NCM pipeline so the comparison
// is apples-to-apples.
class GdumbLearner final : public EdgeLearner {
 public:
  using EdgeLearner::EdgeLearner;

 protected:
  Result<TrainReport> DoLearnNewClasses(
      const data::Dataset& scaled_new, State& state) const override;
};

}  // namespace

Result<TrainReport> PretrainedLearner::DoLearnNewClasses(
    const data::Dataset& scaled_new, State& state) const {
  EnrichSupportSet(scaled_new, state);
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/learn/mid"));
  // No training: the frozen embedding space simply gains prototypes.
  return TrainReport{};
}

Result<TrainReport> RetrainedLearner::DoLearnNewClasses(
    const data::Dataset& scaled_new, State& state) const {
  // Table 2's "without considering the catastrophic forgetting problem"
  // baseline: re-run the cloud's contrastive training recipe on the
  // enriched support set (balanced pairs over ALL classes — the paper's
  // pair reduction is a PILOTE feature enabled by distillation, so the
  // baseline keeps the unreduced pool) with none of PILOTE's forgetting
  // counter-measures: no distillation term, free batch-norm statistics,
  // no stop-gradient anchoring.
  EnrichSupportSet(scaled_new, state);
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/learn/mid"));
  data::Dataset enriched = state.support.ToDataset();
  NewDataSplit split =
      SplitNewData(enriched, config_.validation_fraction, state.rng);
  losses::PairSampler train_sampler(split.train.features(),
                                    split.train.labels(),
                                    losses::PairStrategy::kBalancedRandom,
                                    state.rng.NextUint64());
  losses::PairSampler val_sampler(split.val.features(), split.val.labels(),
                                  losses::PairStrategy::kBalancedRandom,
                                  state.rng.NextUint64());

  TrainerOptions options = config_.incremental;
  options.freeze_batchnorm_stats = false;
  options.anchor_old_pair_side = false;
  SiameseTrainer trainer(*state.model, options);
  return trainer.Train(train_sampler, val_sampler, /*distill=*/nullptr);
}

Result<TrainReport> PiloteLearner::DoLearnNewClasses(
    const data::Dataset& scaled_new, State& state) const {
  // Snapshot the teacher BEFORE any update: phi_old of the old exemplars
  // anchors the distillation term (Algo 1 line 11).
  data::Dataset old_support = state.support.ToDataset();
  DistillationTask distill;
  distill.features = old_support.features();
  distill.teacher_embeddings =
      EmbedBatched(*state.model, old_support.features());
  distill.alpha = config_.alpha;
  distill.batch_size = config_.distill_batch_size;

  // Contrastive term over the reduced pair set (Sec 5.2): old x new cross
  // pairs plus new x new pairs.
  NewDataSplit split =
      SplitNewData(scaled_new, config_.validation_fraction, state.rng);
  losses::PairSampler train_sampler(
      old_support.features(), old_support.labels(), split.train.features(),
      split.train.labels(), config_.incremental_pairs, state.rng.NextUint64());
  losses::PairSampler val_sampler(
      old_support.features(), old_support.labels(), split.val.features(),
      split.val.labels(), config_.incremental_pairs, state.rng.NextUint64());

  // Frozen normalization statistics are part of PILOTE's knowledge
  // preservation: the distillation anchor is only meaningful if the
  // normalization the prototypes/teacher were computed under persists.
  TrainerOptions options = config_.incremental;
  options.freeze_batchnorm_stats = true;
  options.anchor_old_pair_side = config_.anchor_old_pair_side;
  SiameseTrainer trainer(*state.model, options);
  TrainReport report = trainer.Train(train_sampler, val_sampler, &distill);

  // The staged model has already moved; a fault here discards it with the
  // rest of the staged state.
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/learn/mid"));
  EnrichSupportSet(scaled_new, state);
  return report;
}

Result<TrainReport> GdumbLearner::DoLearnNewClasses(
    const data::Dataset& scaled_new, State& state) const {
  EnrichSupportSet(scaled_new, state);
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/learn/mid"));
  // Greedy balancing: every class keeps at most the size of the smallest
  // class' cache (GDumb's balanced reservoir).
  int64_t smallest = config_.exemplars_per_class;
  for (int label : state.support.Classes()) {
    smallest = std::min(smallest, state.support.CountForClass(label));
  }
  state.support.TrimPerClass(std::max<int64_t>(1, smallest));

  // Retrain from scratch: the transferred weights are discarded entirely.
  Rng init_rng(config_.seed ^ 0xD00DULL);
  state.model = std::make_unique<nn::MlpBackbone>(config_.backbone, init_rng);

  data::Dataset cache = state.support.ToDataset();
  NewDataSplit split =
      SplitNewData(cache, config_.validation_fraction, state.rng);
  losses::PairSampler train_sampler(split.train.features(),
                                    split.train.labels(),
                                    losses::PairStrategy::kBalancedRandom,
                                    state.rng.NextUint64());
  losses::PairSampler val_sampler(split.val.features(), split.val.labels(),
                                  losses::PairStrategy::kBalancedRandom,
                                  state.rng.NextUint64());
  TrainerOptions options = config_.incremental;
  options.freeze_batchnorm_stats = false;  // fresh model, fresh statistics
  options.anchor_old_pair_side = false;
  SiameseTrainer trainer(*state.model, options);
  return trainer.Train(train_sampler, val_sampler, /*distill=*/nullptr);
}

Status ValidateArtifact(const CloudArtifact& artifact,
                        const PiloteConfig& config) {
  // The model is built from the artifact's config section before its
  // payload is read, so that section must name the caller's backbone: a
  // corrupt layer width would otherwise size the allocation.
  const nn::BackboneConfig& shipped = artifact.backbone_config;
  const nn::BackboneConfig& expected = config.backbone;
  if (shipped.input_dim != expected.input_dim ||
      shipped.hidden_dims != expected.hidden_dims ||
      shipped.embedding_dim != expected.embedding_dim ||
      shipped.use_batchnorm != expected.use_batchnorm) {
    auto describe = [](const nn::BackboneConfig& backbone) {
      std::string text = std::to_string(backbone.input_dim) + "->[";
      for (size_t i = 0; i < backbone.hidden_dims.size(); ++i) {
        if (i > 0) text += ",";
        text += std::to_string(backbone.hidden_dims[i]);
      }
      return text + "]->" + std::to_string(backbone.embedding_dim) +
             (backbone.use_batchnorm ? " with batch norm" : "");
    };
    return Status::InvalidArgument("artifact/config backbone mismatch: "
                                   "artifact " + describe(shipped) +
                                   " vs config " + describe(expected));
  }
  if (artifact.scaler.mean().numel() != shipped.input_dim) {
    return Status::InvalidArgument(
        "artifact scaler width " +
        std::to_string(artifact.scaler.mean().numel()) +
        " does not match backbone input " +
        std::to_string(shipped.input_dim));
  }
  if (artifact.support.NumClasses() == 0) {
    return Status::InvalidArgument("artifact support set is empty");
  }
  for (int label : artifact.support.Classes()) {
    const Tensor& exemplars = artifact.support.ClassExemplars(label);
    if (exemplars.rows() == 0) {
      return Status::InvalidArgument("support class " +
                                     std::to_string(label) +
                                     " has no exemplars");
    }
    if (exemplars.cols() != shipped.input_dim) {
      return Status::InvalidArgument(
          "support class " + std::to_string(label) + " feature width " +
          std::to_string(exemplars.cols()) + " does not match backbone " +
          std::to_string(shipped.input_dim));
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<EdgeLearner>> MakeEdgeLearner(
    const std::string& strategy, const CloudArtifact& artifact,
    const PiloteConfig& config) {
  PILOTE_RETURN_IF_ERROR(ValidateArtifact(artifact, config));

  // Deserialize the payload up front so a corrupt cloud transfer surfaces
  // as a Status instead of aborting mid-construction.
  Rng init_rng(config.seed);
  auto model =
      std::make_unique<nn::MlpBackbone>(artifact.backbone_config, init_rng);
  PILOTE_RETURN_IF_ERROR(
      serialize::DeserializeModuleFromString(artifact.model_payload, *model));

  // The strategies inherit EdgeLearner's protected constructor, which
  // only this friend may call: hence `new` over std::make_unique.
  std::unique_ptr<EdgeLearner> learner;
  if (strategy == "pretrained") {
    learner.reset(new PretrainedLearner(std::move(model), artifact, config));
  } else if (strategy == "retrained") {
    learner.reset(new RetrainedLearner(std::move(model), artifact, config));
  } else if (strategy == "pilote") {
    learner.reset(new PiloteLearner(std::move(model), artifact, config));
  } else if (strategy == "gdumb") {
    learner.reset(new GdumbLearner(std::move(model), artifact, config));
  } else {
    return Status::InvalidArgument("unknown edge learner strategy: " +
                                   strategy);
  }
  return learner;
}

}  // namespace core
}  // namespace pilote
