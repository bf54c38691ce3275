#include "engine/thread_pool.h"

#include <algorithm>
#include <utility>

namespace spanners {
namespace engine {

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  workers_.reserve(num_threads - 1);
  for (size_t i = 1; i < num_threads; ++i)
    workers_.emplace_back([this, i] { WorkerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunJob(const Job& job) {
  if (job.n == 0) return;
  std::lock_guard<std::mutex> run_lock(run_mu_);
  next_.store(0);
  const size_t helpers = std::min(job.n, num_threads()) - 1;
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      open_ = helpers;
    }
    for (size_t i = 0; i < helpers; ++i) wake_cv_.notify_one();
  }
  Claim(job, 0);
  // Joined workers call into the caller's frame: once the caller runs out
  // of tasks, close the job to workers that have not arrived yet and wait
  // only for those already inside it.
  std::unique_lock<std::mutex> lock(mu_);
  open_ = 0;
  done_cv_.wait(lock, [this] { return running_ == 0; });
  if (error_ != nullptr)
    std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::Claim(const Job& job, size_t thread) {
  try {
    for (size_t task; (task = next_.fetch_add(1)) < job.n;)
      job.call(job.fn, task, thread);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_ == nullptr) error_ = std::current_exception();
  }
}

void ThreadPool::WorkerLoop(size_t thread) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock, [this] { return shutdown_ || open_ > 0; });
    if (shutdown_) return;
    --open_;
    ++running_;
    const Job job = job_;
    lock.unlock();
    Claim(job, thread);
    lock.lock();
    if (--running_ == 0) done_cv_.notify_one();
  }
}

}  // namespace engine
}  // namespace spanners
