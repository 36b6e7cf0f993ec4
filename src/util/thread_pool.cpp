#include "util/thread_pool.hpp"

#include <stdexcept>
#include <utility>

namespace wtr::util {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    throw std::invalid_argument("util::ThreadPool: at least one worker is required");
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::run_task(std::function<void()> task) noexcept {
  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }
    auto task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    run_task(std::move(task));
    lock.lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_error_) {
    auto error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace wtr::util
