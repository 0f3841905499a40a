// Fixed-size worker pool used by the experiment harness to fan Monte-Carlo
// instances across cores. Tasks are type-erased thunks; exceptions raised by
// a task are captured and rethrown to the first caller of wait_idle().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fdlsp {

/// A joinable pool of worker threads consuming a FIFO task queue.
///
/// Lifetime: the destructor drains outstanding tasks and joins all workers,
/// so a ThreadPool can be scoped tightly around a parallel section.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  /// Enqueues a task for execution on some worker.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running, then rethrows
  /// the first exception any task raised (if any).
  ///
  /// Must not be called from one of this pool's own workers: the waiter
  /// would itself be an in-flight task and never see the pool idle. Check
  /// on_worker_thread() and run serially instead — parallel_for does
  /// exactly that, so the pooled sweeps nest on one shared pool without
  /// deadlocking.
  void wait_idle();

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> tasks_;  // FIFO, oldest first
  std::vector<std::thread> workers_;
  std::exception_ptr first_error_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace fdlsp
