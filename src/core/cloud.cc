#include "core/cloud.h"

#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "data/splits.h"
#include "serialize/io.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace core {

int64_t CloudArtifact::TransferBytes() const {
  return static_cast<int64_t>(model_payload.size()) +
         support.StorageBytes(serialize::QuantMode::kFloat32) +
         scaler.mean().numel() * 2 * static_cast<int64_t>(sizeof(float));
}

Result<CloudPretrainResult> CloudPretrainer::Run(const data::Dataset& d_old) {
  if (d_old.empty()) {
    return Status::InvalidArgument("pre-training corpus is empty");
  }
  if (d_old.Classes().size() < 2) {
    return Status::InvalidArgument(
        "pre-training corpus holds a single class; contrastive "
        "pre-training needs negative pairs");
  }
  if (d_old.num_features() != config_.backbone.input_dim) {
    return Status::InvalidArgument(
        "corpus feature width " + std::to_string(d_old.num_features()) +
        " does not match backbone input_dim " +
        std::to_string(config_.backbone.input_dim));
  }
  Rng rng(config_.seed);

  // Validation split before fitting anything (paper: 0.2).
  data::TrainTestSplit split =
      data::StratifiedSplit(d_old, config_.validation_fraction, rng);

  CloudPretrainResult result;
  result.artifact.backbone_config = config_.backbone;
  result.artifact.old_classes = d_old.Classes();
  result.artifact.scaler.Fit(split.train.features());

  data::Dataset train = result.artifact.scaler.Transform(split.train);
  data::Dataset val = result.artifact.scaler.Transform(split.test);

  // Pre-train the embedding model with balanced contrastive pairs.
  nn::MlpBackbone model(config_.backbone, rng);
  losses::PairSampler train_sampler(train.features(), train.labels(),
                                    losses::PairStrategy::kBalancedRandom,
                                    rng.NextUint64());
  losses::PairSampler val_sampler(val.features(), val.labels(),
                                  losses::PairStrategy::kBalancedRandom,
                                  rng.NextUint64());
  SiameseTrainer trainer(model, config_.pretrain);
  result.report = trainer.Train(train_sampler, val_sampler,
                                /*distill=*/nullptr);
  PILOTE_LOG(Info) << "cloud pretrain: " << result.report.epochs_completed
                   << " epochs, val loss " << result.report.final_val_loss;

  // Herd the exemplar support set (Algo 1 lines 1-7).
  for (int label : train.Classes()) {
    data::Dataset class_rows = train.FilterByClass(label);
    std::vector<int64_t> selected =
        SelectExemplars(model, class_rows.features(),
                        config_.exemplars_per_class, config_.selection, rng);
    result.artifact.support.SetClassExemplars(
        label, GatherRows(class_rows.features(), selected));
  }

  // Serialize the model: this byte string is the cloud->edge transfer.
  result.artifact.model_payload = serialize::SerializeModuleToString(model);
  return result;
}

}  // namespace core
}  // namespace pilote
