// Batch assembly and shuffling strategies.
//
// The paper distinguishes three shuffles (§4.2, §5.4, Table 5):
//  * global      — all workers draw the SAME epoch permutation of the
//                  full training range (seeded identically) and take
//                  disjoint contiguous chunks; with index-batching this
//                  is communication-free because every worker holds the
//                  whole (small) dataset.
//  * local       — each worker shuffles only within its fixed partition.
//  * batch-level — fixed partition, fixed batch contents; only the
//                  ORDER of batches is shuffled (the generalized
//                  larger-than-memory variant; improves locality).
//
// DataLoader stages snapshots into preallocated contiguous batch
// buffers.  When the model computes on a simulated device and the data
// lives on the host, every batch crosses PCIe (standard- and
// CPU-index-batching); when the data is device-resident
// (GPU-index-batching), assembly is device-local and the transfer
// ledger stays at the single upfront upload — exactly the effect
// measured in paper Table 4.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "data/index_dataset.h"
#include "data/preprocess.h"
#include "device/device.h"

namespace pgti::data {

/// Uniform view over the dataset representations (and, via RankSource
/// in snapshot_provider.h, over rank-partitioned remote stores).
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  virtual std::pair<Tensor, Tensor> get(std::int64_t i) const = 0;
  /// Called by the loader once per batch, on the thread that stages
  /// it, with the snapshot ids about to be staged, before any get()
  /// for them.  Sources backed by remote storage override it to move
  /// the batch in consolidated requests before it returns; purely
  /// local sources ignore it.
  virtual void prefetch_batch(const std::vector<std::int64_t>& ids) const {
    (void)ids;
  }
  /// Releases prefetches no consumer will take (the loader calls it at
  /// epoch boundaries when a prefetch worker may have staged batches a
  /// truncated epoch never delivered).  No-op for purely local
  /// sources.
  virtual void abandon_prefetches() const {}
  /// Announces the epoch's full consumption order (called once per
  /// start_epoch when prefetch_lookahead > 0, before any
  /// prefetch_batch).
  /// Schedule-aware caches use it to pick eviction victims: an entry
  /// scheduled for a nearer-future batch outlives already-consumed
  /// ones.  No-op for purely local sources.
  virtual void announce_schedule(const std::vector<std::int64_t>& ids) const {
    (void)ids;
  }
  virtual std::int64_t num_snapshots() const = 0;
  virtual MemorySpaceId space() const = 0;
  virtual const StandardScaler& scaler() const = 0;
  virtual const SplitRanges& splits() const = 0;
  virtual const DatasetSpec& spec() const = 0;
};

class IndexSource final : public SnapshotSource {
 public:
  explicit IndexSource(const IndexDataset& d) : d_(&d) {}
  std::pair<Tensor, Tensor> get(std::int64_t i) const override { return d_->get(i); }
  std::int64_t num_snapshots() const override { return d_->num_snapshots(); }
  MemorySpaceId space() const override { return d_->space(); }
  const StandardScaler& scaler() const override { return d_->scaler(); }
  const SplitRanges& splits() const override { return d_->splits(); }
  const DatasetSpec& spec() const override { return d_->spec(); }

 private:
  const IndexDataset* d_;
};

class StandardSource final : public SnapshotSource {
 public:
  explicit StandardSource(const StandardDataset& d) : d_(&d) {}
  std::pair<Tensor, Tensor> get(std::int64_t i) const override { return d_->get(i); }
  std::int64_t num_snapshots() const override { return d_->num_snapshots(); }
  MemorySpaceId space() const override { return d_->x().space(); }
  const StandardScaler& scaler() const override { return d_->scaler(); }
  const SplitRanges& splits() const override { return d_->splits(); }
  const DatasetSpec& spec() const override { return d_->spec(); }

 private:
  const StandardDataset* d_;
};

class PaddedSource final : public SnapshotSource {
 public:
  explicit PaddedSource(const PaddedStandardDataset& d) : d_(&d) {}
  std::pair<Tensor, Tensor> get(std::int64_t i) const override { return d_->get(i); }
  std::int64_t num_snapshots() const override { return d_->num_snapshots(); }
  MemorySpaceId space() const override { return d_->base().x().space(); }
  const StandardScaler& scaler() const override { return d_->scaler(); }
  const SplitRanges& splits() const override { return d_->splits(); }
  const DatasetSpec& spec() const override { return d_->base().spec(); }

 private:
  const PaddedStandardDataset* d_;
};

enum class ShuffleMode { kNone, kGlobal, kLocalPartition, kBatchLevel };

struct SamplerOptions {
  ShuffleMode mode = ShuffleMode::kGlobal;
  int rank = 0;
  int world = 1;
  std::uint64_t seed = 1;
  std::int64_t batch_size = 64;  ///< used by kBatchLevel grouping
};

/// Snapshot indices (within [range_begin, range_end)) that `rank`
/// processes in `epoch`, in processing order.  For kGlobal all ranks
/// must pass the same seed; the permutation is identical everywhere
/// and rank r takes the r-th contiguous chunk (communication-free
/// global shuffling, paper §4.2).
std::vector<std::int64_t> sample_epoch(std::int64_t range_begin, std::int64_t range_end,
                                       const SamplerOptions& options, int epoch);

/// One staged batch.  Tensors are views of the loader's reusable
/// buffers, valid until the next call to next().
struct Batch {
  Tensor x;  ///< [b, horizon, N, F] in the compute space
  Tensor y;  ///< [b, horizon, N, 1] metric targets in the compute space
  std::int64_t size = 0;
  /// Snapshot ids staged into this batch (distributed stores use these
  /// to account remote fetches).
  std::vector<std::int64_t> indices;
  /// Modeled PCIe seconds this batch's staging incurred (nonzero only
  /// when host-resident data is uploaded to a device) and the moment
  /// staging began.  When a prefetch pipeline stages batches ahead of
  /// consumption, the EpochEngine uses the pair to split the modeled
  /// transfer leg into overlapped (hidden behind the wall window since
  /// staging began) and exposed seconds.
  double modeled_staging_seconds = 0.0;
  std::chrono::steady_clock::time_point staged_at{};
};

struct LoaderOptions {
  std::int64_t batch_size = 64;
  SamplerOptions sampler;
  bool drop_last = true;
  /// When set, the model computes on this device: batches are staged
  /// there (incurring PCIe transfers unless the source data already
  /// lives on the device).
  SimDevice* device = nullptr;
  /// Set > 0 when a depth-N PrefetchLoader drives this loader (callers
  /// pass N).  Every batch is announced right before it is staged
  /// either way; how far ahead of consumption that happens is the
  /// PrefetchLoader's budget gate.  A positive value makes
  /// start_epoch release the previous epoch's undelivered prefetches
  /// (abandon_prefetches) and announce this epoch's consumption order
  /// followed by the next epoch's (announce_schedule), which
  /// schedule-aware caches evict around.
  int prefetch_lookahead = 0;
};

class DataLoader {
 public:
  /// Iterates snapshots [range_begin, range_end) of `source` (one of
  /// the split ranges).  `source` must outlive the loader.  Throws
  /// std::invalid_argument when options.batch_size < 1.
  DataLoader(const SnapshotSource& source, const LoaderOptions& options,
             std::int64_t range_begin, std::int64_t range_end);

  /// Draws this epoch's sample order.
  void start_epoch(int epoch);

  /// Stages the next batch; returns false at epoch end.
  bool next(Batch& out);

  /// Caps batches per epoch (-1 = none).  Callers that stop consuming
  /// early (DistTrainer's synchronized steps_per_epoch) set this so
  /// next() — and the epoch schedule — stop at the cap instead of
  /// announcing (and physically staging) a batch nobody will consume.
  /// Does not affect batches_per_epoch().
  void set_max_batches(std::int64_t max_batches) { max_batches_ = max_batches; }

  std::int64_t batches_per_epoch() const;
  std::int64_t samples_per_epoch() const;

 private:
  /// Fills `out` with the snapshot ids of the batch starting at the
  /// cursor in this epoch's order (empty at epoch end, past the
  /// max-batches cap, or for a short tail under drop_last).
  void next_batch_ids(std::vector<std::int64_t>& out) const;
  /// Appends every consumable batch of `order` (respecting drop_last
  /// and the max-batches cap, both per epoch) to `out`.
  void append_epoch_batches(const std::vector<std::int64_t>& order,
                            std::vector<std::int64_t>& out) const;

  const SnapshotSource* source_;
  LoaderOptions options_;
  std::int64_t range_begin_;
  std::int64_t range_end_;
  std::vector<std::int64_t> order_;
  std::size_t cursor_ = 0;
  std::int64_t max_batches_ = -1;
  mutable std::vector<std::int64_t> schedule_ids_;  // reusable scratch

  // Reusable staging buffers (allocated lazily to the max batch size).
  mutable Tensor host_x_, host_y_;   // host staging
  mutable Tensor dev_x_, dev_y_;     // device-resident batch
};

}  // namespace pgti::data
