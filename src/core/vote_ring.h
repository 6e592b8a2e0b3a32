#ifndef PILOTE_CORE_VOTE_RING_H_
#define PILOTE_CORE_VOTE_RING_H_

#include <vector>

#include "common/macros.h"

namespace pilote {
namespace core {

// Fixed-capacity ring of the last `capacity` raw window labels with an
// allocation-free majority vote, replacing the deque + std::map histogram
// on the serve hot path. Pushing past capacity evicts the oldest label, so
// the ring always holds the trailing vote window.
//
// MajorityLabel() must agree label-for-label with the deque + std::map
// reference vote in tests/core_test.cc (VoteRingTest pins the
// equivalence). The vote is O(size^2) compares over a handful of ints —
// cheaper than a map for any realistic vote window, and heap-free, which
// is what the hot-path discipline cares about.
class VoteRing {
 public:
  explicit VoteRing(int capacity) {
    PILOTE_CHECK_GT(capacity, 0);
    labels_.assign(static_cast<size_t>(capacity), 0);
  }

  void Push(int label) {
    if (size_ == capacity()) {
      labels_[static_cast<size_t>(head_)] = label;
      head_ = (head_ + 1) % capacity();
    } else {
      labels_[static_cast<size_t>((head_ + size_) % capacity())] = label;
      ++size_;
    }
  }

  bool empty() const { return size_ == 0; }
  int size() const { return size_; }
  int capacity() const { return static_cast<int>(labels_.size()); }

  // Majority label over the ring; ties break toward the most recent label,
  // then toward the smallest label (the reference vote's exact semantics).
  // CHECKs against an empty ring.
  int MajorityLabel() const {
    PILOTE_CHECK_GT(size_, 0);
    const int most_recent = At(size_ - 1);
    int max_count = 0;
    int min_max_label = 0;
    int recent_count = 0;
    for (int i = 0; i < size_; ++i) {
      const int label = At(i);
      int count = 0;
      for (int j = 0; j < size_; ++j) count += At(j) == label ? 1 : 0;
      if (count > max_count || (count == max_count && label < min_max_label)) {
        max_count = count;
        min_max_label = label;
      }
      if (label == most_recent) recent_count = count;
    }
    return recent_count == max_count ? most_recent : min_max_label;
  }

 private:
  // i-th label, oldest first.
  int At(int i) const {
    return labels_[static_cast<size_t>((head_ + i) % capacity())];
  }

  std::vector<int> labels_;  // allocated once at construction
  int head_ = 0;             // index of the oldest label
  int size_ = 0;
};

}  // namespace core
}  // namespace pilote

#endif  // PILOTE_CORE_VOTE_RING_H_
