// The shared epoch machinery behind Trainer and DistTrainer.
//
// Both workflows used to carry their own copy of the same loop:
// wire a sampler into a DataLoader, optionally wrap it in a
// PrefetchLoader, iterate batches through forward/loss/backward/step,
// accumulate losses and metrics, and close out truncated epochs.
// EpochEngine owns that loop once:
//
//  * BatchPipeline binds one DataLoader to a prefetch depth (0 =
//    drive the loader synchronously; N >= 1 = a depth-N PrefetchLoader
//    ring whose worker stages — and, for device runs, uploads —
//    batches ahead of compute) plus an optional per-batch hook the
//    distributed trainer uses to drain/charge exposed fetch seconds.
//  * EpochEngine::train_epoch / eval_epoch run the actual loops.  A
//    sync_gradients hook between backward and step makes the same loop
//    serve DDP replicas; an on_train_step hook serves the
//    single-process timeline sampler.  Batch sequences — and therefore
//    every loss — are bit-identical across prefetch depths.
//
// The engine also splits the modeled PCIe leg of batch staging into
// overlapped/exposed seconds, mirroring DistStore's fetch-time split
// (DESIGN.md §10/§12): a batch staged by a prefetch worker hides its
// modeled upload behind the wall window between staging and
// consumption; only the remainder stays on the critical path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "autograd/variable.h"
#include "data/dataloader.h"
#include "data/prefetch.h"
#include "nn/dcrnn.h"
#include "optim/optim.h"
#include "runtime/arena.h"

namespace pgti::core {

/// One DataLoader bound to a prefetch depth.  All epoch iteration —
/// single-process or per-rank distributed — flows through this seam,
/// so prefetch on/off/deeper is a construction-time choice, not a
/// second code path.
class BatchPipeline {
 public:
  /// `on_batch` (optional) runs on the consumer thread once per
  /// delivered batch, right after delivery — distributed runs drain
  /// the provider's exposed modeled fetch seconds there.
  BatchPipeline(data::DataLoader& loader, int prefetch_depth,
                std::function<void()> on_batch = {});

  /// Starts an epoch; `max_batches` (-1 = none) caps both consumption
  /// and — crucially — the lookahead announcements of a truncated
  /// epoch (forwarded to the loader via set_max_batches).
  void start_epoch(int epoch, std::int64_t max_batches = -1);

  /// Delivers the next batch; returns false at epoch end.
  bool next(data::Batch& out);

  std::int64_t batches_per_epoch() const { return loader_->batches_per_epoch(); }
  bool prefetching() const noexcept { return prefetch_.has_value(); }

 private:
  data::DataLoader* loader_;
  std::optional<data::PrefetchLoader> prefetch_;
  std::function<void()> on_batch_;
};

/// Drives a SeqModel + Adam through training and evaluation epochs
/// over BatchPipelines.  One instance serves a whole workflow (or one
/// rank of one); the PCIe overlap accounting accumulates across all
/// epochs it runs.
class EpochEngine {
 public:
  struct Hooks {
    /// Runs between backward and optimizer step.  For serial DDP this
    /// IS the gradient averaging; with grad overlap it is a *drain
    /// point* — backward already launched the bucket reduces via
    /// grad_observer, and this hook only waits for (and applies) the
    /// results the step needs.  Absent for single-replica training.
    std::function<void()> sync_gradients;
    /// Runs after every train step with (epoch, batches done so far);
    /// the single-process trainer samples its memory timeline here.
    std::function<void(int, std::int64_t)> on_train_step;
    /// When set, train_epoch passes this observer to every backward()
    /// so ready gradient buckets can start reducing mid-sweep
    /// (dist::OverlappedGradBucket).  Pair with a draining
    /// sync_gradients.
    GradReadyObserver* grad_observer = nullptr;
    /// Runs once at the end of every training epoch with (epoch,
    /// batches consumed), after the last optimizer step and outside
    /// any step ArenaScope.  The serving path publishes its
    /// copy-on-publish ModelSnapshot here (serve::SnapshotSlot), so a
    /// live trainer streams fresh model versions to an overlapping
    /// InferenceEngine without locks on either hot path.
    std::function<void(int, std::int64_t)> on_epoch_end;
  };

  // (Two overloads rather than one defaulted argument: GCC 12 rejects
  // defaulting a nested aggregate that carries default member
  // initializers from inside the enclosing class.)
  EpochEngine(nn::SeqModel& model, optim::Adam& opt);
  EpochEngine(nn::SeqModel& model, optim::Adam& opt, Hooks hooks);

  struct EpochSums {
    double sum = 0.0;  ///< accumulated loss (train) or metric (eval)
    std::int64_t batches = 0;
  };

  /// One training epoch: forward, seq_loss, backward, [sync], step.
  /// `max_steps` (-1 = none) bounds consumed batches and the
  /// pipeline's production.
  EpochSums train_epoch(BatchPipeline& pipe, int epoch, std::int64_t max_steps);

  enum class Metric { kMae, kMse };

  /// One evaluation pass (no tape, no optimizer) accumulating the
  /// chosen metric; always epoch 0 (evaluation order is fixed).
  EpochSums eval_epoch(BatchPipeline& pipe, std::int64_t max_batches,
                       Metric metric);

  /// Modeled PCIe staging seconds hidden behind compute by prefetched
  /// pipelines so far (0 when every pipeline ran at depth 0).
  double overlapped_transfer_seconds() const noexcept { return pcie_overlapped_; }

  /// Tracker-charged heap allocations during the most recent train
  /// step (batch delivery + forward + backward + sync + step).  With
  /// the arena enabled this converges to 0 after the first (planning)
  /// step of a synchronous pipeline; prefetch workers allocate on
  /// their own threads and are counted process-wide, so deep pipelines
  /// report their staging traffic here too.
  std::uint64_t allocs_last_step() const noexcept { return allocs_last_step_; }

 private:
  void account_staging(const data::Batch& batch, bool prefetched);

  nn::SeqModel* model_;
  optim::Adam* opt_;
  Hooks hooks_;
  double pcie_overlapped_ = 0.0;
  // One arena per engine (per rank, for distributed runs): every
  // train/eval step opens an ArenaScope on it, so the first step plans
  // bucket demand and later steps replay against the pool.
  runtime::TensorArena arena_;
  std::uint64_t allocs_last_step_ = 0;
};

}  // namespace pgti::core
