// Rank-aware snapshot access — the seam that makes the index-batched
// and DDP-baseline data planes interchangeable behind the DataLoader.
//
// A SnapshotProvider serves materialized (x, y) snapshot tensors to a
// specific rank.  dist::DistStore implements it with real partitioned
// storage (zero-copy views of the rank's own shard, byte-moving
// LRU-cached copies of remote snapshots); IndexProvider implements it
// over an IndexDataset, where every access is local by construction.
// RankSource binds (provider, rank) into the SnapshotSource interface
// the DataLoader consumes, and forwards the loader's per-batch
// prefetch_batch announcement so providers can move remote data in
// consolidated, Dask-style requests.
#pragma once

#include <utility>
#include <vector>

#include "data/dataloader.h"

namespace pgti::data {

/// Snapshot access with an explicit requesting rank.  Thread-safety
/// contract: concurrent calls with DISTINCT ranks never contend, and
/// within ONE rank implementations must tolerate the thread that
/// stages batches (fetch/prefetch_batch/abandon_prefetches) running
/// concurrently with a consumer that delivers and drains
/// (notify_batch_delivered/drain_modeled_seconds) — DistTrainer's
/// prefetch mode drains on the rank thread while a PrefetchLoader
/// worker fetches.
/// Guard per-rank state accordingly (DistStore uses a per-rank mutex;
/// providers whose accesses are all local may be stateless instead).
class SnapshotProvider {
 public:
  virtual ~SnapshotProvider() = default;

  /// Snapshot `i` as seen by `rank`: (x, y), each [horizon, N, F].
  /// Rank-local data comes back as zero-copy views; remote data as a
  /// (possibly cached) copy whose bytes really moved.
  virtual std::pair<Tensor, Tensor> fetch(int rank, std::int64_t i) = 0;

  /// Announces one batch of snapshot ids `rank` is about to fetch, so
  /// the provider can move remote data in consolidated requests per
  /// owner.  The provider stages the batch on the calling thread:
  /// when it returns, the fetches that follow find their data local.
  virtual void prefetch_batch(int rank, const std::vector<std::int64_t>& ids) = 0;

  /// Releases `rank`'s prefetches no consumer will take (called at
  /// epoch boundaries, when a prefetch worker may have staged batches
  /// a truncated epoch never delivered).
  virtual void abandon_prefetches(int rank) { (void)rank; }

  /// Tells the provider that `rank`'s consumer received one assembled
  /// batch (called on the consumer thread, once per batch, in delivery
  /// order).  Providers that overlap transfers with compute classify
  /// the overlap split of their oldest unclassified announced request
  /// here: when a prefetch worker announces and assembles batches
  /// ahead of compute, the wall window that really hides a transfer
  /// runs from its announcement to the batch's *delivery*.  A
  /// consumer that announced the batch itself waited for its own
  /// transfer, so its window is empty.  Default: ignore.
  virtual void notify_batch_delivered(int rank) { (void)rank; }

  /// Announces `rank`'s full epoch consumption order (once per
  /// start_epoch, before any prefetch_batch of that epoch).
  /// Schedule-aware providers use it to pick cache eviction victims:
  /// an entry scheduled for a nearer-future batch must outlive
  /// already-consumed ones.  Providers whose accesses are all local
  /// ignore it.
  virtual void announce_schedule(int rank, const std::vector<std::int64_t>& ids) {
    (void)rank;
    (void)ids;
  }

  /// Asks `rank`'s cache to keep snapshots [begin, end) resident as
  /// long as its bounds allow: a caching provider evicts them last,
  /// stalest first (the serving engine's hot window).  Replaces any
  /// earlier range.  Default: ignore.
  virtual void retain(int /*rank*/, std::int64_t /*begin*/, std::int64_t /*end*/) {}

  /// *Exposed* modeled fetch seconds accumulated by `rank` since the
  /// last drain — the share of modeled fetch time still on the critical
  /// path after any prefetch overlap (synchronous providers expose all
  /// of it; zero for providers whose accesses are all local).
  virtual double drain_modeled_seconds(int rank) = 0;

  virtual std::int64_t num_snapshots() const = 0;
  virtual MemorySpaceId space() const = 0;
  virtual const StandardScaler& scaler() const = 0;
  virtual const SplitRanges& splits() const = 0;
  virtual const DatasetSpec& spec() const = 0;
};

/// Index-batching's data plane: the rank holds the dataset (or its
/// partition) in full, so every fetch is a local zero-copy view and no
/// time is ever modeled.
class IndexProvider final : public SnapshotProvider {
 public:
  explicit IndexProvider(const IndexDataset& d) : d_(&d) {}

  std::pair<Tensor, Tensor> fetch(int, std::int64_t i) override { return d_->get(i); }
  void prefetch_batch(int, const std::vector<std::int64_t>&) override {}
  double drain_modeled_seconds(int) override { return 0.0; }
  std::int64_t num_snapshots() const override { return d_->num_snapshots(); }
  MemorySpaceId space() const override { return d_->space(); }
  const StandardScaler& scaler() const override { return d_->scaler(); }
  const SplitRanges& splits() const override { return d_->splits(); }
  const DatasetSpec& spec() const override { return d_->spec(); }

 private:
  const IndexDataset* d_;
};

/// (provider, rank) bound into the SnapshotSource seam: the DataLoader
/// stays rank-agnostic while every access it makes is attributed — and
/// physically served — to one rank.
class RankSource final : public SnapshotSource {
 public:
  RankSource(SnapshotProvider& provider, int rank) : p_(&provider), rank_(rank) {}

  std::pair<Tensor, Tensor> get(std::int64_t i) const override {
    return p_->fetch(rank_, i);
  }
  void prefetch_batch(const std::vector<std::int64_t>& ids) const override {
    p_->prefetch_batch(rank_, ids);
  }
  void abandon_prefetches() const override { p_->abandon_prefetches(rank_); }
  void announce_schedule(const std::vector<std::int64_t>& ids) const override {
    p_->announce_schedule(rank_, ids);
  }
  std::int64_t num_snapshots() const override { return p_->num_snapshots(); }
  MemorySpaceId space() const override { return p_->space(); }
  const StandardScaler& scaler() const override { return p_->scaler(); }
  const SplitRanges& splits() const override { return p_->splits(); }
  const DatasetSpec& spec() const override { return p_->spec(); }

  int rank() const noexcept { return rank_; }

 private:
  SnapshotProvider* p_;
  int rank_;
};

}  // namespace pgti::data
