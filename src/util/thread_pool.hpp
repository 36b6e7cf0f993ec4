#pragma once

// A small reusable worker pool for the sharded simulation engine. Workers
// are spawned once and fed through a mutex-guarded queue; submit() enqueues
// a task, wait() blocks until every submitted task has finished, and the
// pool is then ready for the next submit/wait cycle. Exceptions thrown by a
// task are captured and rethrown from wait() (first one wins) so shard
// failures surface in the calling thread instead of killing the process.
//
// A pool needs at least one worker. There is no inline mode: the engine's
// streaming merge waits on shard publications before it calls wait(), so a
// task that only wait() would run could never start.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wtr::util {

class ThreadPool {
 public:
  /// Spawn `workers` threads. Throws std::invalid_argument for 0.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for execution. Must not be called concurrently with
  /// wait() from another thread (the pool has a single producer by design).
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed, then rethrow the first
  /// captured task exception, if any. The pool is reusable afterwards.
  void wait();

 private:
  void worker_loop();
  void run_task(std::function<void()> task) noexcept;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t in_flight_ = 0;  // dequeued but not yet finished
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

}  // namespace wtr::util
