// A fixed-size thread pool over one FIFO task queue. Workers pop from its
// front under the pool mutex, so tasks start in submission order: a
// batch's shards start in corpus order, which is also the order the
// stream drain hands them to its consumer.
#ifndef SPANNERS_ENGINE_THREAD_POOL_H_
#define SPANNERS_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spanners {
namespace engine {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (min 1). Threads live until destruction.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Appends `task` to the queue. Thread-safe.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Thread-safe, but
  /// tasks themselves must not call WaitIdle.
  void WaitIdle();

  /// Index of the pool worker executing the current task, in
  /// [0, num_threads()), or SIZE_MAX when called off a pool thread. Lets
  /// tasks address per-worker state (e.g. one extraction arena per worker)
  /// without locking.
  static size_t CurrentWorkerIndex();

  static size_t DefaultThreads();

 private:
  void WorkerLoop(size_t self);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // work available or shutting down
  std::condition_variable idle_cv_;  // pending_ dropped to zero
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  size_t pending_ = 0;               // queued + running tasks
  bool shutdown_ = false;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_THREAD_POOL_H_
