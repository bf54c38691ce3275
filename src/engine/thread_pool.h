// A fixed-size thread pool whose caller is one of its threads. A pool of
// T threads starts T − 1 parked workers; Run(n, fn) runs fn(task, thread)
// for every task in [0, n) on the calling thread (thread 0) and at most
// n − 1 woken workers, which claim task indices in order from one atomic
// counter, and returns when every task has finished. A one-thread pool
// starts no thread, and a one-task Run wakes none: a batch smaller than a
// wake-up finishes on the caller before a worker arrives.
#ifndef SPANNERS_ENGINE_THREAD_POOL_H_
#define SPANNERS_ENGINE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace spanners {
namespace engine {

class ThreadPool {
 public:
  /// A pool of `num_threads` threads, the caller of Run included; 0 means
  /// std::thread::hardware_concurrency (min 1). Workers live until
  /// destruction.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(task, thread) once for every task in [0, n) and returns when
  /// all have finished. `thread` is in [0, num_threads()) and no two tasks
  /// run on the same `thread` at once, so tasks may address per-thread
  /// state (e.g. one extraction arena per thread) without locking; the
  /// caller is thread 0. A thread whose task throws claims no further
  /// task, and Run rethrows the first such exception once every thread
  /// has stopped. Calls from different threads serialize; fn must not
  /// call Run on the same pool.
  template <typename Fn>
  void Run(size_t n, const Fn& fn) {
    RunJob({n, &fn, [](const void* f, size_t task, size_t thread) {
              (*static_cast<const Fn*>(f))(task, thread);
            }});
  }

  static size_t DefaultThreads();

 private:
  struct Job {
    size_t n = 0;
    const void* fn = nullptr;
    void (*call)(const void* fn, size_t task, size_t thread) = nullptr;
  };

  void RunJob(const Job& job);
  // Claims task indices from next_ until they run out or a task throws;
  // keeps the first exception in error_.
  void Claim(const Job& job, size_t thread);
  void WorkerLoop(size_t thread);

  std::vector<std::thread> workers_;  // threads 1 .. num_threads() − 1
  std::mutex run_mu_;                 // serializes Run
  std::atomic<size_t> next_{0};       // the current job's next task
  std::mutex mu_;                     // guards the members below
  std::condition_variable wake_cv_;   // a job opened, or shutting down
  std::condition_variable done_cv_;   // running_ dropped to zero
  Job job_;
  size_t open_ = 0;           // workers that may still join job_
  size_t running_ = 0;        // workers inside job_
  std::exception_ptr error_;  // the first exception a task threw
  bool shutdown_ = false;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_THREAD_POOL_H_
