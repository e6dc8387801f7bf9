#include "util/thread_pool.hpp"

#include <algorithm>

namespace parfw {

ThreadPool::ThreadPool(std::size_t n_threads) {
  threads_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    std::size_t depth;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    if (PoolObserver* obs = observer()) obs->on_queue_depth(depth);
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::max<std::size_t>(1, size());
  if (workers == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(workers, n);
  const std::size_t per = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(n, lo + per);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  for (auto& f : futs) f.wait();
  for (auto& f : futs) f.get();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace parfw
