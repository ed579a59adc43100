#include "dist/dist_store.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace pgti::dist {
namespace {

std::int64_t spec_snapshot_bytes(const data::DatasetSpec& spec) {
  // One materialized (x, y) snapshot: both [horizon, N, F] float arrays.
  return 2 * spec.horizon * spec.nodes * spec.features *
         static_cast<std::int64_t>(sizeof(float));
}

/// A window no modeled time exceeds: the request was never waited on.
constexpr double kNeverWaited = std::numeric_limits<double>::infinity();

}  // namespace

DistStore::DistStore(data::StandardDataset dataset, int world, NetworkModel network,
                     std::int64_t cache_snapshots_per_rank,
                     std::int64_t cache_bytes_per_rank)
    : model_(dataset.num_snapshots(), spec_snapshot_bytes(dataset.spec()), world,
             network, /*consolidate_requests=*/true),
      dataset_(std::move(dataset)),
      // The store owns its cache defaults: negative = auto, sized to a
      // couple of batches of this dataset's spec (the lookahead working
      // set) and never below the historical default.
      empty_cache_(cache_snapshots_per_rank >= 0
                       ? cache_snapshots_per_rank
                       : std::max(kDefaultCacheSnapshots, 2 * dataset_.spec().batch_size),
                   std::max<std::int64_t>(0, cache_bytes_per_rank),
                   model_.snapshot_bytes()) {
  for (int r = 0; r < world; ++r) ranks_.push_back(std::make_unique<RankState>(empty_cache_));
}

DistStore::DistStore(data::StandardDataset dataset, int world, NetworkModel network,
                     bool consolidate_requests, std::int64_t cache_snapshots_per_rank,
                     std::int64_t cache_bytes_per_rank, bool /*async_prefetch*/)
    : DistStore(std::move(dataset), world, network, cache_snapshots_per_rank,
                cache_bytes_per_rank) {
  if (!consolidate_requests) {
    throw std::invalid_argument("DistStore: requests are always consolidated");
  }
}

int DistStore::add_reader() {
  ranks_.push_back(std::make_unique<RankState>(empty_cache_));
  return static_cast<int>(ranks_.size()) - 1;
}

void DistStore::check_rank(int rank) const {
  const int limit = static_cast<int>(ranks_.size());
  if (rank < 0 || rank >= limit) {
    throw std::out_of_range("DistStore: rank " + std::to_string(rank) +
                            " outside [0, " + std::to_string(limit) + ")");
  }
}

DistStore::RankState& DistStore::rank_state(int rank) {
  check_rank(rank);
  return *ranks_[static_cast<std::size_t>(rank)];
}

std::pair<std::int64_t, std::int64_t> DistStore::partition(int rank) const {
  check_rank(rank);
  return model_.partition(rank);
}

Tensor DistStore::shard_x(int rank) const {
  const auto [lo, hi] = partition(rank);
  return dataset_.x().slice(0, lo, hi - lo);
}

Tensor DistStore::shard_y(int rank) const {
  const auto [lo, hi] = partition(rank);
  return dataset_.y().slice(0, lo, hi - lo);
}

void DistStore::classify_locked(RankState& rs, const Request& req,
                                double window_seconds) {
  // The window is real compute the modeled fetch hid behind; only the
  // remainder stays on the critical path.
  const double exposed = std::max(0.0, req.modeled_seconds - window_seconds);
  rs.pending_exposed_seconds += exposed;
  std::lock_guard<std::mutex> lk(mu_);
  stats_.exposed_seconds += exposed;
  stats_.overlapped_seconds += req.modeled_seconds - exposed;
}

std::optional<DistStore::Request> DistStore::announce_locked(
    int rank, RankState& rs, const std::vector<std::int64_t>& ids) {
  const FetchModel::Price p = model_.price(rank, ids);
  // Stage: every miss is a deep copy of the owning shard's snapshot —
  // the remote bytes physically moving.  A refused announcement
  // (std::logic_error) or a failed copy (OutOfMemoryError) throws
  // before anything of the batch is recorded.
  const SnapshotCache::Staged staged =
      rs.cache.stage(p.remote_ids, [this](std::int64_t id) {
        const auto [x, y] = dataset_.get(id);
        return std::pair{x.clone(), y.clone()};
      });
  std::lock_guard<std::mutex> g(mu_);
  stats_.local_snapshots += p.local;
  stats_.remote_snapshots += p.remote;
  stats_.remote_bytes += p.bytes;
  stats_.request_messages += p.messages;
  stats_.modeled_seconds += p.seconds;
  stats_.bytes_copied += staged.bytes_copied;
  // The cache absorbed every resident id the model priced: a
  // snapshot's worth of modeled bytes each that did not physically
  // move.
  stats_.cache_hits += staged.hits;
  stats_.cache_hit_bytes +=
      staged.hits * static_cast<std::uint64_t>(model_.snapshot_bytes());
  if (p.remote_ids.empty()) return std::nullopt;
  return Request{p.seconds, std::chrono::steady_clock::now(), std::this_thread::get_id()};
}

void DistStore::prefetch_batch(int rank, const std::vector<std::int64_t>& ids) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  if (const auto req = announce_locked(rank, rs, ids)) rs.awaiting_delivery.push_back(*req);
}

std::pair<Tensor, Tensor> DistStore::fetch(int rank, std::int64_t i) {
  const int own = model_.owner(i);
  RankState& rs = rank_state(rank);
  if (own == rank) return dataset_.get(i);  // zero-copy view of the owned shard

  std::lock_guard<std::mutex> lk(rs.m);
  // The pin is the record of an announced, unconsumed id.  Anything
  // else (never announced, or abandoned) travels as its own
  // one-snapshot request, staged here and exposed in full.
  if (!rs.cache.pinned(i)) {
    classify_locked(rs, *announce_locked(rank, rs, {i}), /*window_seconds=*/0.0);
  }
  return rs.cache.consume(i);
}

void DistStore::abandon_prefetches(int rank) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  // Announced but never delivered: the consumer never computed on
  // these requests, so nothing waited for them.
  for (const Request& req : rs.awaiting_delivery) classify_locked(rs, req, kNeverWaited);
  rs.awaiting_delivery.clear();
  // Keep the announced schedule across the boundary: it already
  // extends into the next epoch (loaders announce two epochs' worth),
  // so residue the coming epoch reuses holds a future position during
  // this eviction pass instead of looking like dead weight.  Positions
  // belonging to the truncated remainder of the current epoch are
  // stale, but only transiently — the next start_epoch replaces the
  // whole schedule — and capacity is still enforced either way.
  rs.cache.release_all();
}

void DistStore::notify_batch_delivered(int rank) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  if (rs.awaiting_delivery.empty()) return;
  const Request req = rs.awaiting_delivery.front();
  rs.awaiting_delivery.pop_front();
  // A prefetch worker announced and staged the batch ahead of the
  // consumer's compute, so the window runs to this delivery.  A
  // consumer that announced the batch itself waited for its own
  // copies, and that wait hid nothing.
  const double window =
      req.announced_by == std::this_thread::get_id()
          ? 0.0
          : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          req.announced_at)
                .count();
  classify_locked(rs, req, window);
}

void DistStore::announce_schedule(int rank, const std::vector<std::int64_t>& ids) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  rs.cache.schedule(ids);
}

void DistStore::retain(int rank, std::int64_t begin, std::int64_t end) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  rs.cache.retain(begin, end);
}

double DistStore::drain_modeled_seconds(int rank) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  const double out = rs.pending_exposed_seconds;
  rs.pending_exposed_seconds = 0.0;
  return out;
}

StoreStats DistStore::stats() const {
  // Each rank's mutex is released before mu_ is taken: announce_locked
  // takes them in the other order.
  std::uint64_t evictions = 0;
  for (const auto& rs : ranks_) {
    std::lock_guard<std::mutex> lk(rs->m);
    evictions += rs->cache.evictions();
  }
  std::lock_guard<std::mutex> lk(mu_);
  StoreStats out = stats_;
  out.cache_evictions = evictions;
  return out;
}

}  // namespace pgti::dist
