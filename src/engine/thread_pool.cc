#include "engine/thread_pool.h"

#include <utility>

namespace spanners {
namespace engine {

namespace {

thread_local size_t tls_worker_index = SIZE_MAX;

}  // namespace

size_t ThreadPool::CurrentWorkerIndex() { return tls_worker_index; }

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i)
    threads_.emplace_back([this, i] { WorkerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_worker_index = self;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      task();
      task = nullptr;  // destroy captures outside the lock
      lock.lock();
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (shutdown_) return;
    work_cv_.wait(lock);
  }
}

}  // namespace engine
}  // namespace spanners
