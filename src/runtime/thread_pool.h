// Shared-memory parallelism substrate (OpenMP-style structured loops).
//
// Compute kernels (matmul, SpMM, elementwise ops) parallelize across a
// process-wide pool via parallel_for, mirroring the `#pragma omp
// parallel for` idiom: fork at loop entry, join at loop exit, no tasks
// escape the construct.
//
// Several threads of one process may call into the pool at once (the
// in-process DDP ranks of dist::Cluster).  A PoolShare caps how wide
// one thread's loops fork, so W such callers can split the pool instead
// of each forking to its full width (DESIGN.md §18).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pgti {

/// Fixed-size worker pool executing half-open index ranges.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(begin, end) over [begin, end) split into at most
  /// min(size(), the calling thread's PoolShare) roughly equal chunks
  /// across the pool (including the calling thread) and blocks until
  /// all chunks complete.  A share of 1 runs fn inline without touching
  /// the pool.  Exceptions from workers are rethrown on the calling
  /// thread.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Process-wide pool sized to hardware concurrency (override with
  /// the PGTI_NUM_THREADS environment variable).
  static ThreadPool& global();

 private:
  struct TaskImpl;

  void worker_loop(int worker_index);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<TaskImpl> pending_;
  bool stop_ = false;
};

/// RAII thread-local cap on how many chunks this thread's parallel_for
/// calls split into (clamped to [1, pool size]; no scope = the whole
/// pool).  Nests: the previous cap is restored on destruction,
/// including during exception unwinding.  Other threads are unaffected,
/// and a thread started inside the scope does not inherit it.
class PoolShare {
 public:
  explicit PoolShare(int threads) noexcept;
  ~PoolShare();

  PoolShare(const PoolShare&) = delete;
  PoolShare& operator=(const PoolShare&) = delete;

  /// The share each of `ranks` threads calling into the global pool at
  /// once gets, so that together they use at most its threads:
  /// max(1, ThreadPool::global().size() / ranks).
  static int per_rank(int ranks);

 private:
  int prev_;
};

/// Convenience wrapper over ThreadPool::global().parallel_for.
/// `grain` is the minimum chunk size; small ranges run inline.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace pgti
