#include "data/prefetch.h"

#include <algorithm>

namespace pgti::data {

PrefetchLoader::PrefetchLoader(DataLoader& loader, int depth)
    : inner_(&loader),
      slots_(static_cast<std::size_t>(std::max(depth, 1) + 1)),
      slot_full_(slots_.size(), 0) {
  worker_ = std::thread([this] { worker_loop(); });
}

PrefetchLoader::~PrefetchLoader() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void PrefetchLoader::deep_copy(const Batch& src, Batch& dst) {
  if (!dst.x.defined() || dst.x.shape() != src.x.shape()) {
    dst.x = Tensor::empty(src.x.shape(), src.x.space());
    dst.y = Tensor::empty(src.y.shape(), src.y.space());
  }
  dst.x.copy_from(src.x);
  dst.y.copy_from(src.y);
  dst.size = src.size;
  dst.indices = src.indices;
  dst.modeled_staging_seconds = src.modeled_staging_seconds;
  dst.staged_at = src.staged_at;
}

void PrefetchLoader::start_epoch(int epoch, std::int64_t max_batches) {
  std::unique_lock<std::mutex> lock(mu_);
  // Abort any in-flight fill (frees the producer if it is waiting on a
  // slot the consumer abandoned) and wait for it to drain.
  abort_ = true;
  std::fill(slot_full_.begin(), slot_full_.end(), 0);
  cv_.notify_all();
  cv_.wait(lock, [this] { return !fill_requested_ || stop_; });
  if (stop_) return;
  abort_ = false;
  std::fill(slot_full_.begin(), slot_full_.end(), 0);
  produce_idx_ = consume_idx_ = 0;
  in_use_idx_ = -1;
  epoch_ = epoch;
  max_batches_ = max_batches;
  produced_ = 0;
  budget_ = depth();
  worker_error_ = nullptr;  // a restart is explicit recovery
  epoch_done_ = false;
  fill_requested_ = true;
  cv_.notify_all();
}

bool PrefetchLoader::next(Batch& out) {
  std::unique_lock<std::mutex> lock(mu_);
  // Release the slot handed out by the previous call: only now may the
  // producer overwrite it (the caller is done with those views).
  if (in_use_idx_ >= 0) {
    slot_full_[static_cast<std::size_t>(in_use_idx_)] = 0;
    in_use_idx_ = -1;
    cv_.notify_all();
  }
  cv_.wait(lock, [this] {
    return worker_error_ || slot_full_[static_cast<std::size_t>(consume_idx_)] ||
           (epoch_done_ && !fill_requested_) || stop_;
  });
  if (worker_error_) {
    std::exception_ptr error = worker_error_;
    worker_error_ = nullptr;
    std::rethrow_exception(error);
  }
  if (!slot_full_[static_cast<std::size_t>(consume_idx_)]) return false;
  const Batch& slot = slots_[static_cast<std::size_t>(consume_idx_)];
  out.x = slot.x;
  out.y = slot.y;
  out.size = slot.size;
  out.indices = slot.indices;
  out.modeled_staging_seconds = slot.modeled_staging_seconds;
  out.staged_at = slot.staged_at;
  in_use_idx_ = consume_idx_;  // stays full until the next call
  consume_idx_ = advance(consume_idx_);
  // Delivery k lets the worker stage (and so announce) batch k+depth.
  ++budget_;
  cv_.notify_all();
  return true;
}

void PrefetchLoader::worker_loop() {
  // Staging allocations (the inner loader's reusable buffers, the ring
  // slots' deep copies, any per-batch scratch the source needs) happen
  // on this thread; one scope for its lifetime pools them all.  Pool
  // reuse hands back uninitialized memory, which is safe here: every
  // staging buffer is fully overwritten (copy_from / clone) before any
  // consumer reads it.
  runtime::ArenaScope scope(arena_);
  Batch staged;
  for (;;) {
    int epoch;
    std::int64_t cap;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return fill_requested_ || stop_; });
      if (stop_) return;
      if (abort_) {
        // The fill was aborted before it ever started (restart with
        // zero batches consumed).  Acknowledge it here or the
        // restarting consumer waits for a drain that never happens
        // while this thread waits for the abort to clear.
        fill_requested_ = false;
        epoch_done_ = true;
        cv_.notify_all();
        continue;
      }
      // Snapshot epoch_/max_batches_ while still holding mu_:
      // start_epoch writes them under the same lock, and an unlocked
      // read here would race with the next (re)start.
      epoch = epoch_;
      cap = max_batches_;
    }
    try {
      // One capping mechanism: the cap is forwarded to the inner
      // loader, whose next() (and epoch schedule) stop at the bound.
      inner_->set_max_batches(cap);
      inner_->start_epoch(epoch);
      for (;;) {
        // Budget gate: batch k may stage only once k < depth +
        // deliveries, so at most `depth` batches are ever announced
        // ahead of consumption.  Always deadlock-free at the tail:
        // after the final delivery the budget exceeds the batch count,
        // so the probe that discovers epoch end is always permitted.
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return produced_ < budget_ || abort_ || stop_; });
        if (stop_) return;
        if (!abort_) {
          ++produced_;
          lock.unlock();
          const bool have = inner_->next(staged);
          lock.lock();
          if (have && !abort_) {
            // The gate keeps this slot free: at most depth - 1 staged
            // batches wait ahead of the one the consumer holds.
            deep_copy(staged, slots_[static_cast<std::size_t>(produce_idx_)]);
            slot_full_[static_cast<std::size_t>(produce_idx_)] = 1;
            produce_idx_ = advance(produce_idx_);
            cv_.notify_all();
            continue;
          }
        }
        epoch_done_ = true;
        fill_requested_ = false;
        cv_.notify_all();
        break;
      }
    } catch (...) {
      // An inner-loader throw (e.g. a failed copy in the source's
      // prefetch_batch, which runs on this worker) must reach the real
      // consumer in next(), not escape the thread and terminate the
      // process.
      std::lock_guard<std::mutex> lock(mu_);
      worker_error_ = std::current_exception();
      epoch_done_ = true;
      fill_requested_ = false;
      cv_.notify_all();
    }
  }
}

}  // namespace pgti::data
