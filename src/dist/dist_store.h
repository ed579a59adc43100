// Dask-style distributed snapshot store (the paper's DDP baseline).
//
// The baseline materializes every snapshot and partitions them
// contiguously across workers; a worker whose shuffled batch contains
// snapshots owned elsewhere must fetch them over the network.
//
// DistStore takes ownership of a materialized StandardDataset and
// implements data::SnapshotProvider over it.  Ownership and pricing
// come from a FetchModel (fetch_model.h): rank r owns the contiguous
// shard [partition(r)) (shard_x/shard_y expose the owned slices), and
// every remote access is priced per the model.  fetch() returns a
// zero-copy view for rank-local snapshots and a real copied tensor,
// served through the rank's bounded SnapshotCache, for remote ones.  The
// StoreStats ledger keeps the *model* (every remote access priced,
// consolidated per owner) next to the *measured* movement
// (bytes_copied, cache hits), so modeled bytes can be asserted against
// bytes that physically moved: remote_bytes == bytes_copied +
// cache_hit_bytes always holds.
//
// Ranks.  The store starts with `world` worker ranks; add_reader()
// appends more.  Every rank gets the same state (a SnapshotCache and
// the request lifecycle below); a rank differs from another only in
// what it owns, and ranks past the workers own nothing, so every
// access they make is remote.  Serving uses such a reader rank, which keeps training
// shards untouched by serving traffic.  The store starts no threads:
// whoever announces a batch stages it.
//
// Request lifecycle.  Every remote access travels in a request, and
// every request takes the same four steps:
//
//   1. announce — prefetch_batch prices the batch through the
//      FetchModel.  A fetch() of an id nobody announced is announced
//      on the spot as its own one-snapshot request.
//   2. stage — on the announcing thread, before prefetch_batch
//      returns, the rank's cache pins the remote ids and the misses
//      are copied into it.  The copies are made before the batch is
//      recorded, so a failed copy leaves nothing of it priced or
//      pinned.
//   3. consume — each announced id is taken by exactly one fetch(),
//      which unpins it.
//   4. classify — requests wait in a FIFO in announcement order, and
//      each delivery of a batch (notify_batch_delivered, on the
//      consumer) classifies the oldest: its modeled seconds split
//      into overlapped and exposed, exposed = max(0, modeled -
//      window).  The window is 0 when the delivering thread
//      announced the request itself (it waited for its own copies, so
//      nothing hid them); otherwise it runs from the announcement to
//      the delivery, because a prefetch worker staged the batch up to
//      `depth` batches before the consumer computes on it.  A fetch
//      nobody announced is exposed in full on the spot; requests never
//      delivered (abandon_prefetches) were never waited on and are
//      fully overlapped.
//
// Residency is not the store's: each rank's SnapshotCache
// (snapshot_cache.h) holds its copies, pins, bounds, announced
// schedule and retained range, and picks every eviction victim.  The
// cache's pin is the store's one record of an announced, unconsumed
// id, so even a zero-capacity or byte-tight cache keeps a snapshot
// from its announcement to its consumption (an eviction in between
// would re-price it as a request of its own).  abandon_prefetches(rank)
// releases announcements that will never be consumed (epoch
// truncation).  drain_modeled_seconds() drains only the exposed share.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "data/preprocess.h"
#include "data/snapshot_provider.h"
#include "dist/cluster_model.h"
#include "dist/fetch_model.h"
#include "dist/snapshot_cache.h"

namespace pgti::dist {

/// Remote-fetch ledger (what DistResult reports).  The first block is
/// the fetch *model* (every remote access priced); the second is the
/// *measured* movement.  Invariant: remote_bytes == bytes_copied +
/// cache_hit_bytes.
struct StoreStats {
  std::uint64_t local_snapshots = 0;
  std::uint64_t remote_snapshots = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t request_messages = 0;
  double modeled_seconds = 0.0;

  /// Split of modeled_seconds by whether compute hid the time.
  /// overlapped + exposed converges to modeled_seconds once every
  /// announced request has been delivered or abandoned.
  double overlapped_seconds = 0.0;
  double exposed_seconds = 0.0;

  std::uint64_t bytes_copied = 0;     ///< bytes physically cloned on cache misses
  std::uint64_t cache_hits = 0;       ///< remote accesses served from the cache
  std::uint64_t cache_hit_bytes = 0;  ///< modeled bytes the cache absorbed
  std::uint64_t cache_evictions = 0;
};

/// Partitioned, byte-moving snapshot store.  Thread-safe for
/// concurrent calls with DISTINCT ranks; within one rank, the thread
/// that announces and fetches (a prefetch worker) and the consumer
/// that delivers and drains may run concurrently (per-rank state is
/// mutex-protected).
class DistStore final : public data::SnapshotProvider {
 public:
  /// Default per-rank cache capacity, in snapshots.
  static constexpr std::int64_t kDefaultCacheSnapshots = 64;

  /// Takes ownership of the dataset and partitions its snapshots
  /// contiguously across `world` worker ranks.  Remote accesses are
  /// priced as consolidated requests, one message per owning peer.
  /// `cache_snapshots_per_rank` bounds each rank's remote cache in
  /// snapshots (0 is a valid zero-capacity cache: announced snapshots
  /// survive until consumed, then evict immediately; negative = auto —
  /// the store owns its default and sizes the cache to a couple of
  /// batches of the dataset's spec, never below
  /// kDefaultCacheSnapshots); `cache_bytes_per_rank` adds a byte bound
  /// on top (0 = no byte bound).
  DistStore(data::StandardDataset dataset, int world, NetworkModel network,
            std::int64_t cache_snapshots_per_rank = -1,
            std::int64_t cache_bytes_per_rank = 0);

  /// Source compatibility for callers that still pass the former
  /// `consolidate_requests` and `async_prefetch` arguments.  Requests
  /// are always consolidated, so the first must be true
  /// (std::invalid_argument otherwise); the announcing thread always
  /// stages, so `async_prefetch` is ignored.
  [[deprecated("requests are always consolidated and staged by their announcer; "
               "drop both arguments")]]
  DistStore(data::StandardDataset dataset, int world, NetworkModel network,
            bool consolidate_requests, std::int64_t cache_snapshots_per_rank,
            std::int64_t cache_bytes_per_rank, bool async_prefetch);

  DistStore(const DistStore&) = delete;
  DistStore& operator=(const DistStore&) = delete;

  /// Appends a rank that owns no partition (a serving-side view of the
  /// store) and returns its id.  It is an ordinary rank in every other
  /// respect: same cache, same request lifecycle.  The rank table is
  /// not synchronized: call it before any other thread uses the store.
  int add_reader();

  /// Owning rank of a snapshot; throws std::out_of_range for ids
  /// outside [0, num_snapshots).
  int owner(std::int64_t snapshot) const { return model_.owner(snapshot); }

  /// [begin, end) snapshot range owned by `rank` (empty for readers).
  std::pair<std::int64_t, std::int64_t> partition(int rank) const;

  const FetchModel& model() const noexcept { return model_; }
  StoreStats stats() const;

  std::int64_t snapshot_bytes() const noexcept { return model_.snapshot_bytes(); }

  /// The x/y shard owned by `rank`: zero-copy views of the snapshot
  /// range [partition(rank)).
  Tensor shard_x(int rank) const;
  Tensor shard_y(int rank) const;

  /// Classification follows one rule (see the request lifecycle
  /// above); this switch no longer selects anything and is kept only
  /// so existing callers compile.
  [[deprecated("classification has one rule; drop the call")]]
  void set_delivery_driven_classification(bool) {}

  // --- data::SnapshotProvider -----------------------------------------
  std::pair<Tensor, Tensor> fetch(int rank, std::int64_t i) override;
  /// Announces one batch and stages it on the calling thread (steps 1
  /// and 2 of the lifecycle): when it returns, the batch's remote ids
  /// are in `rank`'s cache, pinned until fetched.  Throws
  /// std::logic_error if a remote id repeats in `ids` or is still
  /// pinned by an earlier announcement of this rank, and rethrows a
  /// failed copy (e.g. OutOfMemoryError); either way nothing of the
  /// batch is recorded or pinned.
  void prefetch_batch(int rank, const std::vector<std::int64_t>& ids) override;
  void abandon_prefetches(int rank) override;
  /// Classifies the oldest unclassified request of `rank` (FIFO in
  /// announcement order, one per delivery).  Batches are delivered in
  /// the order they were announced and a batch without remote
  /// snapshots creates no request, so a request is classified at or
  /// before its own delivery.  A request the calling thread announced
  /// itself gets no window: it waited for its own copies.
  void notify_batch_delivered(int rank) override;
  /// Installs `rank`'s announced consumption order in its cache
  /// (SnapshotCache::schedule; replaces any previous schedule).  The
  /// schedule survives abandon_prefetches (the following start_epoch
  /// replaces it).
  void announce_schedule(int rank, const std::vector<std::int64_t>& ids) override;
  /// Sets `rank`'s retained range (SnapshotCache::retain).
  void retain(int rank, std::int64_t begin, std::int64_t end) override;
  double drain_modeled_seconds(int rank) override;
  std::int64_t num_snapshots() const noexcept override { return model_.num_snapshots(); }
  MemorySpaceId space() const override { return dataset_.x().space(); }
  const data::StandardScaler& scaler() const override { return dataset_.scaler(); }
  const data::SplitRanges& splits() const override { return dataset_.splits(); }
  const data::DatasetSpec& spec() const override { return dataset_.spec(); }

 private:
  /// One announced batch's remote ids, priced and staged, waiting
  /// for the delivery that classifies them.
  struct Request {
    double modeled_seconds = 0.0;
    std::chrono::steady_clock::time_point announced_at;
    std::thread::id announced_by;
  };

  /// Per rank: its cache, its requests awaiting delivery (oldest
  /// first), and the exposed seconds not yet drained.  `m` serializes
  /// the rank's announcing thread, its consumer, and drain callers.
  struct RankState {
    explicit RankState(SnapshotCache empty) : cache(std::move(empty)) {}
    std::mutex m;
    SnapshotCache cache;
    std::deque<Request> awaiting_delivery;
    double pending_exposed_seconds = 0.0;
  };

  RankState& rank_state(int rank);
  void check_rank(int rank) const;

  /// Steps 1 and 2 (rs.m held): prices `ids` and stages their remote
  /// ids in the rank's cache, then records the price and the copies.
  /// Returns the request, or nothing when every id is local.
  std::optional<Request> announce_locked(int rank, RankState& rs,
                                         const std::vector<std::int64_t>& ids);
  /// Step 4 (rs.m held): exposed = max(0, modeled - window_seconds).
  void classify_locked(RankState& rs, const Request& req, double window_seconds);

  FetchModel model_;
  data::StandardDataset dataset_;
  SnapshotCache empty_cache_;  ///< every rank's cache starts as a copy
  std::vector<std::unique_ptr<RankState>> ranks_;

  mutable std::mutex mu_;
  StoreStats stats_;  ///< cache_evictions stays 0: stats() sums the caches'
};

}  // namespace pgti::dist
