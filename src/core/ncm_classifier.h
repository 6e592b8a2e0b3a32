#ifndef PILOTE_CORE_NCM_CLASSIFIER_H_
#define PILOTE_CORE_NCM_CLASSIFIER_H_

#include <vector>

#include "common/hot_path.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace pilote {

namespace exec {
class PlanBuilder;
struct ValueRef;
}  // namespace exec

namespace core {

// Nearest-class-mean classifier over class prototypes (paper Eq. 1):
//   y* = argmin_y ||phi(x) - mu_y||^2,  mu_y = mean of class-y exemplar
// embeddings. Works purely in the embedding space; the caller supplies the
// embeddings (see core::Embed).
class NcmClassifier {
 public:
  // Registers (or replaces) the prototype of `label`.
  void SetPrototype(int label, Tensor prototype);

  // Computes mu_y as the mean of `embeddings` rows and registers it.
  void SetPrototypeFromEmbeddings(int label, const Tensor& embeddings);

  void Clear();

  bool HasPrototype(int label) const;
  const Tensor& prototype(int label) const;
  // Generation-checked view of a prototype's elements (common/span.h):
  // pointer+size in release; in debug, dereferencing after the prototype
  // is replaced (SetPrototype) or the support set reshuffles is
  // CHECK-fatal instead of silently reading a stale mean.
  ConstSpan<float> prototype_view(int label) const;
  // The stacked [k, d] prototype matrix row for the i-th label of
  // Labels(), straight from the predict-path cache.
  ConstSpan<float> prototype_row_view(int index) const;
  // Labels in ascending order.
  std::vector<int> Labels() const;
  int64_t NumClasses() const { return static_cast<int64_t>(labels_.size()); }
  int64_t embedding_dim() const;

  // Nearest-prototype label per row of `embeddings` [n, d].
  PILOTE_HOT_PATH std::vector<int> Predict(const Tensor& embeddings) const;

  // Squared Euclidean distance of each row to each prototype, columns
  // ordered as Labels() -> [n, k].
  PILOTE_HOT_PATH Tensor DistanceMatrix(const Tensor& embeddings) const;

  // Records the classify tail (distances + argmin over Labels()) onto a
  // compiled inference plan, reading the cached prototype matrix and norms
  // so the plan is bit-identical to Predict(). Returns kFailedPrecondition
  // with no prototypes (callers fall back to the eager path).
  Status CapturePredict(exec::PlanBuilder& plan,
                        exec::ValueRef embeddings) const;

  // Bytes needed to store the prototypes (float32).
  int64_t StorageBytes() const;

 private:
  int IndexOf(int label) const;
  // Refreshes the stacked prototype matrix and its row norms after a
  // prototype mutation.
  void RebuildCache();

  std::vector<int> labels_;          // sorted
  std::vector<Tensor> prototypes_;   // aligned with labels_
  // Prototypes stacked into one [k, d] matrix plus their squared row
  // norms, rebuilt on every prototype mutation (SetPrototype / Clear) so
  // the predict path neither allocates prototype temporaries nor redoes
  // the k*d norm reduction per call. The cached norms are the exact
  // RowSquaredNorm output, keeping distances bit-identical.
  Tensor proto_matrix_;
  Tensor proto_sq_norms_;
};

}  // namespace core
}  // namespace pilote

#endif  // PILOTE_CORE_NCM_CLASSIFIER_H_
