#include "core/ncm_classifier.h"

#include <algorithm>

#include "common/macros.h"
#include "exec/plan_builder.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace core {

void NcmClassifier::SetPrototype(int label, Tensor prototype) {
  PILOTE_CHECK_EQ(prototype.rank(), 1);
  if (!labels_.empty()) {
    PILOTE_CHECK_EQ(prototype.dim(0), prototypes_.front().dim(0))
        << "prototype dimension mismatch";
  }
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it != labels_.end() && *it == label) {
    prototypes_[static_cast<size_t>(it - labels_.begin())] =
        std::move(prototype);
    RebuildCache();
    return;
  }
  const size_t pos = static_cast<size_t>(it - labels_.begin());
  labels_.insert(it, label);
  prototypes_.insert(prototypes_.begin() + static_cast<ptrdiff_t>(pos),
                     std::move(prototype));
  RebuildCache();
}

void NcmClassifier::SetPrototypeFromEmbeddings(int label,
                                               const Tensor& embeddings) {
  PILOTE_CHECK_EQ(embeddings.rank(), 2);
  PILOTE_CHECK_GT(embeddings.rows(), 0);
  SetPrototype(label, ColumnMean(embeddings));
}

void NcmClassifier::Clear() {
  labels_.clear();
  prototypes_.clear();
  RebuildCache();
}

bool NcmClassifier::HasPrototype(int label) const {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  return it != labels_.end() && *it == label;
}

int NcmClassifier::IndexOf(int label) const {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  PILOTE_CHECK(it != labels_.end() && *it == label)
      << "no prototype for class " << label;
  return static_cast<int>(it - labels_.begin());
}

const Tensor& NcmClassifier::prototype(int label) const {
  return prototypes_[static_cast<size_t>(IndexOf(label))];
}

ConstSpan<float> NcmClassifier::prototype_view(int label) const {
  return prototypes_[static_cast<size_t>(IndexOf(label))].span();
}

ConstSpan<float> NcmClassifier::prototype_row_view(int index) const {
  PILOTE_CHECK(!prototypes_.empty()) << "no prototypes registered";
  PILOTE_CHECK(index >= 0 &&
               index < static_cast<int>(prototypes_.size()))
      << "prototype index out of range";
  return proto_matrix_.row_span(index);
}

std::vector<int> NcmClassifier::Labels() const { return labels_; }

int64_t NcmClassifier::embedding_dim() const {
  PILOTE_CHECK(!prototypes_.empty());
  return prototypes_.front().dim(0);
}

void NcmClassifier::RebuildCache() {
  if (prototypes_.empty()) {
    proto_matrix_ = Tensor();
    proto_sq_norms_ = Tensor();
    return;
  }
  const int64_t d = embedding_dim();
  const int64_t k = static_cast<int64_t>(prototypes_.size());
  if (proto_matrix_.rank() != 2 || proto_matrix_.rows() != k ||
      proto_matrix_.cols() != d) {
    proto_matrix_ = Tensor(Shape::Matrix(k, d));
  }
  for (size_t i = 0; i < prototypes_.size(); ++i) {
    ConstSpan<float> src = prototypes_[i].span();
    Span<float> dst = proto_matrix_.row_span(static_cast<int64_t>(i));
    PILOTE_DCHECK(src.size() == dst.size());
    std::copy(src.begin(), src.end(), dst.begin());
  }
  proto_sq_norms_ = RowSquaredNorm(proto_matrix_);
}

Tensor NcmClassifier::DistanceMatrix(const Tensor& embeddings) const {
  PILOTE_CHECK(!prototypes_.empty()) << "no prototypes registered";
  // The cached norms are RowSquaredNorm(proto_matrix_) verbatim, so this
  // is bit-identical to the uncached two-argument overload.
  return PairwiseSquaredDistance(embeddings, proto_matrix_, proto_sq_norms_);
}

std::vector<int> NcmClassifier::Predict(const Tensor& embeddings) const {
  PILOTE_METRIC_COUNT("core/ncm_predictions", embeddings.rows());
  // hotpath-ok: the distance matrix and label vector are the
  // per-call outputs
  Tensor distances = DistanceMatrix(embeddings);
  // hotpath-ok: per-call output
  std::vector<int64_t> nearest = ArgMinPerRow(distances);
  std::vector<int> result(nearest.size());  // hotpath-ok: output
  for (size_t i = 0; i < nearest.size(); ++i) {
    result[i] = labels_[static_cast<size_t>(nearest[i])];
  }
  return result;
}

Status NcmClassifier::CapturePredict(exec::PlanBuilder& plan,
                                     exec::ValueRef embeddings) const {
  if (prototypes_.empty()) {
    return Status::FailedPrecondition("no prototypes registered");
  }
  exec::ValueRef distances =
      plan.SquaredDistances(embeddings, proto_matrix_, proto_sq_norms_);
  plan.ArgMinLabels(distances, labels_);
  return Status::Ok();
}

int64_t NcmClassifier::StorageBytes() const {
  int64_t total = 0;
  for (const Tensor& p : prototypes_) {
    total += p.numel() * static_cast<int64_t>(sizeof(float));
  }
  return total;
}

}  // namespace core
}  // namespace pilote
