#include "support/thread_pool.h"

#include <utility>

namespace fdlsp {

namespace {
// Which pool (if any) owns the current thread; lets parallel entry points
// detect nesting on a shared pool and fall back to their serial path.
thread_local const ThreadPool* current_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
  if (first_error_) {
    auto error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

bool ThreadPool::on_worker_thread() const noexcept {
  return current_worker_pool == this;
}

void ThreadPool::worker_loop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ with no work left
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++in_flight_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace fdlsp
