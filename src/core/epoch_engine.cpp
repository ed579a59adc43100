#include "core/epoch_engine.h"

#include <algorithm>
#include <chrono>

#include "core/trainer.h"

namespace pgti::core {

BatchPipeline::BatchPipeline(data::DataLoader& loader, int prefetch_depth,
                             std::function<void()> on_batch)
    : loader_(&loader), on_batch_(std::move(on_batch)) {
  if (prefetch_depth > 0) prefetch_.emplace(loader, prefetch_depth);
}

void BatchPipeline::start_epoch(int epoch, std::int64_t max_batches) {
  if (prefetch_) {
    prefetch_->start_epoch(epoch, max_batches);
  } else {
    loader_->set_max_batches(max_batches);
    loader_->start_epoch(epoch);
  }
}

bool BatchPipeline::next(data::Batch& out) {
  const bool have = prefetch_ ? prefetch_->next(out) : loader_->next(out);
  // The delivery (prefetched or not) may have accumulated exposed
  // modeled fetch time at the provider; charge it on the consumer,
  // where the distributed trainer's cluster clock lives.
  if (have && on_batch_) on_batch_();
  return have;
}

EpochEngine::EpochEngine(nn::SeqModel& model, optim::Adam& opt)
    : EpochEngine(model, opt, Hooks()) {}

EpochEngine::EpochEngine(nn::SeqModel& model, optim::Adam& opt, Hooks hooks)
    : model_(&model), opt_(&opt), hooks_(std::move(hooks)) {}

void EpochEngine::account_staging(const data::Batch& batch, bool prefetched) {
  if (batch.modeled_staging_seconds <= 0.0) return;
  double exposed = batch.modeled_staging_seconds;
  if (prefetched) {
    // Mirrors DistStore's delivery-time classification: the wall
    // window between the worker staging (and uploading) the batch and
    // its delivery is real compute the modeled transfer hid behind;
    // only the remainder stays on the critical path.
    const double window = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - batch.staged_at)
                              .count();
    exposed = std::max(0.0, batch.modeled_staging_seconds - window);
  }
  pcie_overlapped_ += batch.modeled_staging_seconds - exposed;
}

EpochEngine::EpochSums EpochEngine::train_epoch(BatchPipeline& pipe, int epoch,
                                                std::int64_t max_steps) {
  pipe.start_epoch(epoch, max_steps);
  EpochSums sums;
  data::Batch batch;
  auto& tracker = MemoryTracker::instance();
  while (max_steps < 0 || sums.batches < max_steps) {
    // The scope opens before batch delivery so synchronous batch
    // assembly recycles pool blocks too; it closes (and returns the
    // step's tape to the pool) before the loss leaves the iteration.
    runtime::ArenaScope scope(arena_);
    const std::uint64_t heap_before = tracker.heap_allocs_total();
    if (!pipe.next(batch)) break;
    account_staging(batch, pipe.prefetching());
    std::vector<Variable> outputs = model_->forward_seq(batch.x);
    Variable loss = seq_loss(outputs, batch.y);
    opt_->zero_grad();
    loss.backward(hooks_.grad_observer);
    if (hooks_.sync_gradients) hooks_.sync_gradients();
    opt_->step();
    allocs_last_step_ = tracker.heap_allocs_total() - heap_before;
    sums.sum += static_cast<double>(loss.value().item());
    ++sums.batches;
    if (hooks_.on_train_step) hooks_.on_train_step(epoch, sums.batches);
  }
  if (hooks_.on_epoch_end) hooks_.on_epoch_end(epoch, sums.batches);
  return sums;
}

EpochEngine::EpochSums EpochEngine::eval_epoch(BatchPipeline& pipe,
                                               std::int64_t max_batches,
                                               Metric metric) {
  pipe.start_epoch(0, max_batches);
  EpochSums sums;
  data::Batch batch;
  while (max_batches < 0 || sums.batches < max_batches) {
    runtime::ArenaScope scope(arena_);
    if (!pipe.next(batch)) break;
    account_staging(batch, pipe.prefetching());
    std::vector<Variable> outputs = model_->forward_seq(batch.x);
    sums.sum += metric == Metric::kMae ? seq_mae(outputs, batch.y)
                                       : seq_mse(outputs, batch.y);
    ++sums.batches;
  }
  return sums;
}

}  // namespace pgti::core
