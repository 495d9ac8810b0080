// Fixed-size worker pool. The sweep runner (and cbps-sim --seeds) runs
// independent simulations on it, one Simulator/Registry/Rng per task.
//
// Deliberately minimal: submit() enqueues a task, wait() blocks until
// everything submitted so far has finished and rethrows the first task
// exception.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cbps::common {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t threads);

  /// Waits for every submitted task to finish, then joins the workers.
  /// Pending exceptions are swallowed here — call wait() first if you
  /// care about them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not submit to the pool they run on's
  /// wait() path (no nested wait()), but may submit() new tasks.
  void submit(std::function<void()> task);

  /// Block until all tasks submitted so far have completed. If any task
  /// threw, rethrows the first exception (and clears it, so the pool
  /// stays usable).
  void wait();

  std::size_t thread_count() const { return workers_.size(); }

  /// std::thread::hardware_concurrency(), but never 0.
  static std::size_t hardware_threads();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // dequeued but not yet finished
  std::exception_ptr first_error_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cbps::common
