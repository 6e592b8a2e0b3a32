#include "common/thread_pool.h"

#include <algorithm>

#include "common/macros.h"

namespace pilote {
namespace {

int ResolveNumThreads(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  return num_threads;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveNumThreads(num_threads)) {
  // With one logical thread everything runs inline; spawn no workers.
  if (num_threads_ == 1) return;
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    // lifetime-ok: workers are joined in ~ThreadPool before `this` dies
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && tasks_.empty()) {
        task_available_.Wait(mutex_);
      }
      if (shutting_down_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& fn) {
  ParallelForRanges(count, [&fn](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

// hotpath-ok: worker handoff synchronization is the cost of parallel
// dispatch; the queue lock and completion wait are the mechanism.
void ThreadPool::ParallelForRanges(
    int64_t count, const std::function<void(int64_t, int64_t)>& fn) {
  if (count <= 0) return;
  const int64_t chunks =
      std::min<int64_t>(count, static_cast<int64_t>(num_threads_));
  if (chunks <= 1 || workers_.empty()) {
    fn(0, count);
    return;
  }
  const int64_t chunk_size = (count + chunks - 1) / chunks;

  // The count is decremented and notified under done_mutex, so the waiter
  // can only see 0 once the last worker has released the lock: the worker
  // never touches done_mutex or done_cv after this frame may unwind.
  int64_t remaining = chunks;
  Mutex done_mutex;
  CondVar done_cv;

  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t begin = c * chunk_size;
    const int64_t end = std::min(count, begin + chunk_size);
    // lifetime-ok: ParallelForRanges blocks on done_cv until every chunk
    // has run, so the captured frame outlives all submitted tasks
    Submit([&, begin, end] {
      fn(begin, end);
      MutexLock lock(done_mutex);
      if (--remaining == 0) done_cv.NotifyOne();
    });
  }
  MutexLock lock(done_mutex);
  while (remaining != 0) done_cv.Wait(done_mutex);
}

// hotpath-ok: process-lifetime singleton, allocates on first call only
ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace pilote
