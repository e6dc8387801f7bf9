// A fixed-size work-stealing-free thread pool with a shared queue.
//
// Used as the execution engine behind the CPU SRGEMM kernels, the simulated
// accelerator worker, and the mpisim rank threads' helpers. The pool is
// deliberately simple: tasks are type-erased std::function<void()> pushed to
// a mutex-protected deque. For the kernel sizes this library runs (tiles of
// >= 64x64), enqueue overhead is negligible relative to task cost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace parfw {

/// Observability seam for ThreadPool. util sits at the bottom of the
/// library graph (telemetry links util), so the pool cannot call the
/// metrics registry directly — instead a caller implements this
/// interface (perfbench's pool probe does) and installs it with
/// ThreadPool::set_observer. Methods are called outside the pool's lock
/// and from many threads concurrently; implementations must be
/// thread-safe and cheap. The observer must outlive the pool (or be
/// detached with set_observer(nullptr) first).
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;
  /// Queue depth immediately after a push (submit) or pop (worker).
  virtual void on_queue_depth(std::size_t depth) = 0;
  /// Per-task latency: seconds spent queued, then seconds spent running.
  /// Inline-executed tasks (a 0-worker pool) report wait_seconds == 0.
  virtual void on_task(double wait_seconds, double run_seconds) = 0;
};

/// Fixed-size thread pool. Threads are created in the constructor and
/// joined in the destructor (RAII); submit() is thread-safe.
class ThreadPool {
 public:
  /// Create a pool with `n_threads` workers. n_threads == 0 creates a pool
  /// that executes submitted tasks inline on the caller's thread, which is
  /// useful for deterministic unit tests.
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 means inline execution).
  std::size_t size() const noexcept { return threads_.size(); }

  /// Install (or clear, with nullptr) the metrics observer. Takes effect
  /// for tasks submitted after the call; tasks already queued report with
  /// whatever observer is installed when they run.
  void set_observer(PoolObserver* obs) {
    observer_.store(obs, std::memory_order_release);
  }
  PoolObserver* observer() const {
    return observer_.load(std::memory_order_acquire);
  }

  /// Enqueue a task; returns a future for its completion.
  template <typename F>
  std::future<void> submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(std::forward<F>(fn));
    std::future<void> fut = task->get_future();
    PoolObserver* obs = observer();
    if (threads_.empty()) {
      if (obs == nullptr) {
        (*task)();
      } else {
        const auto t0 = std::chrono::steady_clock::now();
        (*task)();
        obs->on_task(0.0, seconds_since(t0));
      }
      return fut;
    }
    std::function<void()> wrapped;
    if (obs == nullptr) {
      wrapped = [task] { (*task)(); };
    } else {
      // Timestamp at enqueue so the worker can split wait from run time.
      const auto t_enq = std::chrono::steady_clock::now();
      wrapped = [this, task, t_enq] {
        const auto t_run = std::chrono::steady_clock::now();
        (*task)();
        if (PoolObserver* o = observer()) {
          o->on_task(std::chrono::duration<double>(t_run - t_enq).count(),
                     seconds_since(t_run));
        }
      };
    }
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(wrapped));
      depth = queue_.size();
    }
    if (obs != nullptr) obs->on_queue_depth(depth);
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// Work is divided into contiguous chunks, one per worker, which matches
  /// the row-panel decomposition the SRGEMM driver uses. If chunks throw,
  /// the first chunk's exception is rethrown only after every chunk has
  /// finished, so `fn` and what it captures by reference are never used
  /// after this call returns.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// A process-wide default pool sized to the hardware concurrency.
  static ThreadPool& global();

 private:
  void worker_loop();

  static double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<PoolObserver*> observer_{nullptr};
};

}  // namespace parfw
