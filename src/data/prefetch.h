// Background batch prefetching (paper §7 future work: "explore data
// distribution strategies ... and implement prefetching").
//
// A PrefetchLoader drives an inner DataLoader on a worker thread and
// buffers up to `depth` assembled batches in a ring of depth+1 slots,
// overlapping batch staging (and any modeled PCIe/store traffic it
// triggers) with model compute.  depth = 1 is classic double
// buffering; deeper rings let the worker run further ahead, which
// pushes the exposed share of modeled fetch time toward zero.  The
// worker is the only thread that moves data ahead of compute: the
// inner loader announces each batch to its source right before
// staging it, so a remote-backed source copies the batch on this
// worker, and a budget gate keeps exactly `depth` batches staged
// ahead of consumption.  The batch sequence is identical to the inner
// loader's at every depth.
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "data/dataloader.h"
#include "runtime/arena.h"

namespace pgti::data {

class PrefetchLoader {
 public:
  /// Takes ownership semantics over loader's iteration: callers must
  /// not call loader.next() directly while prefetching.  `depth` >= 1
  /// is the number of assembled batches the worker may run ahead of
  /// the consumer (ring of depth+1 slots).
  explicit PrefetchLoader(DataLoader& loader, int depth = 1);
  ~PrefetchLoader();

  PrefetchLoader(const PrefetchLoader&) = delete;
  PrefetchLoader& operator=(const PrefetchLoader&) = delete;

  /// Starts (re)filling from the given epoch.  `max_batches` bounds
  /// how many batches the epoch assembles (-1 = the whole epoch);
  /// callers that consume a truncated epoch (steps_per_epoch caps)
  /// pass the cap so the worker goes quiescent — and stops announcing
  /// batches — once the last consumable batch is staged.  Forwarded to the inner loader via set_max_batches (the
  /// single capping mechanism).
  void start_epoch(int epoch, std::int64_t max_batches = -1);

  /// Delivers the next prefetched batch; returns false at epoch end.
  /// The returned tensors are deep copies owned by the PrefetchLoader
  /// and stay valid until the slot cycles back around (depth+1 calls).
  /// An exception thrown by the inner loader on the worker thread
  /// (e.g. a staging failure surfaced by the source) is rethrown here,
  /// on the real consumer; restarting via start_epoch discards a
  /// pending error (explicit recovery).
  bool next(Batch& out);

  int depth() const noexcept { return static_cast<int>(slots_.size()) - 1; }

  /// Pool demand recorded by the worker's staging arena (planning
  /// high-water, pool hits): the worker thread runs under an
  /// ArenaScope, so after the first epoch plans the ring's buffer
  /// shapes, steady-state staging allocates nothing from the heap.
  runtime::ArenaStats arena_stats() const { return arena_.stats(); }

 private:
  void worker_loop();
  static void deep_copy(const Batch& src, Batch& dst);
  int advance(int idx) const noexcept {
    return (idx + 1) % static_cast<int>(slots_.size());
  }

  DataLoader* inner_;
  // The worker's staging pool (declared before worker_ so it outlives
  // the thread's scope on every destruction path).  Ring slots and the
  // inner loader's staging buffers are allocated on the worker thread,
  // so routing that thread through an arena closes the last scope-less
  // allocation path of a prefetched pipeline: the first epoch plans,
  // later epochs stage alloc-free.  Slot tensors escape to the
  // consumer as views; blocks recycle when slots cycle or the ring
  // dies, never mid-lease.
  runtime::TensorArena arena_;
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Batch> slots_;     ///< ring of depth+1 reusable batches
  std::vector<char> slot_full_;  ///< parallel to slots_
  bool epoch_done_ = true;
  bool fill_requested_ = false;
  bool abort_ = false;
  bool stop_ = false;
  int produce_idx_ = 0;
  int consume_idx_ = 0;
  int in_use_idx_ = -1;  ///< slot handed to the caller, pinned until next()
  int epoch_ = 0;
  std::int64_t max_batches_ = -1;  ///< forwarded to the inner loader (-1 = none)
  // Budget gate: the worker may stage batch k only once k < depth +
  // deliveries, so at most `depth` batches are ever announced ahead of
  // consumption — the depth sweep stays a real sweep instead of
  // collapsing every announcement into the first compute window.
  std::int64_t produced_ = 0;  ///< batches the worker has staged
  std::int64_t budget_ = 0;    ///< depth + deliveries so far
  std::exception_ptr worker_error_;  ///< inner-loader throw, rethrown in next()
};

}  // namespace pgti::data
