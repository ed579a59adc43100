#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

namespace pgti {
namespace {

/// The calling thread's PoolShare cap (no scope open: no cap).
thread_local int t_pool_share = std::numeric_limits<int>::max();

/// Per-parallel_for completion state.  Each invocation owns one, so
/// concurrent callers (e.g. DDP worker threads) never wait on each
/// other's loops.
struct Invocation {
  const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
  std::atomic<int> remaining{0};
  std::exception_ptr error;
  std::mutex error_mu;
};

}  // namespace

struct ThreadPool::TaskImpl {
  Invocation* inv = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

ThreadPool::ThreadPool(int num_threads) {
  const int extra = std::max(0, num_threads - 1);
  workers_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop(int /*worker_index*/) {
  for (;;) {
    TaskImpl task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_ && pending_.empty()) return;
      task = pending_.back();
      pending_.pop_back();
    }
    try {
      (*task.inv->fn)(task.begin, task.end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(task.inv->error_mu);
      if (!task.inv->error) task.inv->error = std::current_exception();
    }
    if (task.inv->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task of this invocation: wake its caller.
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (begin >= end) return;
  const std::int64_t n = end - begin;
  const int nthreads = std::min(size(), t_pool_share);
  if (nthreads == 1 || n == 1) {
    fn(begin, end);
    return;
  }
  const std::int64_t chunks = std::min<std::int64_t>(n, nthreads);
  const std::int64_t chunk = (n + chunks - 1) / chunks;

  Invocation inv;
  inv.fn = &fn;

  // The calling thread keeps the first chunk; the rest are queued.
  const std::int64_t self_end = std::min(begin + chunk, end);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t s = self_end; s < end; s += chunk) {
      pending_.push_back(TaskImpl{&inv, s, std::min(s + chunk, end)});
      inv.remaining.fetch_add(1, std::memory_order_relaxed);
    }
  }
  cv_work_.notify_all();

  std::exception_ptr self_error;
  try {
    fn(begin, self_end);
  } catch (...) {
    self_error = std::current_exception();
  }

  // Help drain the queue while waiting: execute ANY pending task (not
  // just ours) so concurrent callers make progress instead of blocking
  // on pool workers that are busy with other callers' chunks.
  for (;;) {
    if (inv.remaining.load(std::memory_order_acquire) == 0) break;
    TaskImpl task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_.empty()) {
        cv_done_.wait(lock, [&] {
          return inv.remaining.load(std::memory_order_acquire) == 0 ||
                 !pending_.empty();
        });
        continue;
      }
      task = pending_.back();
      pending_.pop_back();
    }
    try {
      (*task.inv->fn)(task.begin, task.end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(task.inv->error_mu);
      if (!task.inv->error) task.inv->error = std::current_exception();
    }
    if (task.inv->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_all();
    }
  }

  if (self_error) std::rethrow_exception(self_error);
  if (inv.error) std::rethrow_exception(inv.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("PGTI_NUM_THREADS")) {
      const int n = std::atoi(env);
      if (n > 0) return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 2 : static_cast<int>(hw);
  }());
  return pool;
}

PoolShare::PoolShare(int threads) noexcept : prev_(t_pool_share) {
  t_pool_share = std::max(1, threads);
}

PoolShare::~PoolShare() { t_pool_share = prev_; }

int PoolShare::per_rank(int ranks) {
  return std::max(1, ThreadPool::global().size() / std::max(1, ranks));
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end - begin <= std::max<std::int64_t>(grain, 1)) {
    if (begin < end) fn(begin, end);
    return;
  }
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace pgti
