// thread_pool.h — a small fixed-size worker pool used to fan parameter
// sweeps (policy × array-size × load grids) across cores. Each simulation
// run is single-threaded and independent, so the pool only needs a plain
// mutex-guarded queue: the per-task work (an entire trace-driven simulation)
// dwarfs any queue contention.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace pr {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency() (at least 1). `tasks` is
  /// the most tasks the caller will run at once: the pool starts
  /// min(threads, max(tasks, 1)) workers, never one that could only idle.
  /// If a worker cannot be started, the ones already running are joined
  /// and the exception (std::system_error) is rethrown.
  explicit ThreadPool(
      unsigned threads = 0,
      std::size_t tasks = std::numeric_limits<std::size_t>::max());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task; the returned future carries the task's result or
  /// exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// Exceptions from tasks are rethrown (the first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Stop accepting work, let the workers drain the queue, join them.
  void shut_down();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Map fn over [0, n) collecting results in order. Convenience wrapper used
/// by the experiment runner.
template <typename R>
std::vector<R> parallel_map(ThreadPool& pool, std::size_t n,
                            const std::function<R(std::size_t)>& fn) {
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([i, &fn] { return fn(i); }));
  }
  std::vector<R> results;
  results.reserve(n);
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

}  // namespace pr
