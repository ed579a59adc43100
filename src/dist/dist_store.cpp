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
      cache_capacity_(cache_snapshots_per_rank >= 0
                          ? cache_snapshots_per_rank
                          : std::max(kDefaultCacheSnapshots,
                                     2 * dataset_.spec().batch_size)),
      cache_bytes_capacity_(std::max<std::int64_t>(0, cache_bytes_per_rank)) {
  for (int r = 0; r < world; ++r) ranks_.push_back(std::make_unique<RankState>());
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
  ranks_.push_back(std::make_unique<RankState>());
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

std::int64_t DistStore::future_schedule_pos_locked(const RankState& rs,
                                                   std::int64_t i) {
  // An id may be scheduled several times (the loader announces this
  // epoch's order followed by the next one); its eviction priority is
  // the first occurrence that has not been consumed yet.
  const auto it = rs.schedule_pos.find(i);
  if (it == rs.schedule_pos.end()) return -1;
  const auto p = std::lower_bound(it->second.begin(), it->second.end(),
                                  rs.schedule_progress);
  return p == it->second.end() ? -1 : *p;
}

void DistStore::evict_over_capacity_locked(RankState& rs, std::int64_t incoming) {
  const std::int64_t incoming_bytes = incoming * model_.snapshot_bytes();
  const auto over = [&] {
    if (static_cast<std::int64_t>(rs.cache.size()) + incoming > cache_capacity_) return true;
    return cache_bytes_capacity_ > 0 &&
           rs.cache_bytes + incoming_bytes > cache_bytes_capacity_;
  };
  if (!over()) return;
  // Schedule-aware victim selection, one walk: unpinned entries with
  // no remaining scheduled use evict first (already-consumed residue,
  // least recently used first), then — only if the bounds still bite —
  // still-scheduled entries by farthest next use (Belady fallback), so
  // a nearer-scheduled entry never evicts while consumed residue
  // exists.  Pinned entries (announced but not yet consumed) must
  // survive regardless of the configured bounds or the consolidated
  // fetch model breaks.  Pins and schedule positions cannot change
  // while rs.m is held, so the candidate partition stays valid across
  // the whole pass.
  std::vector<std::int64_t> residue;  // LRU-oldest first
  std::vector<std::pair<std::int64_t, std::int64_t>> scheduled;  // (pos, id)
  for (auto it = rs.lru.rbegin(); it != rs.lru.rend(); ++it) {
    const auto ce = rs.cache.find(*it);
    if (ce->second.pins > 0) continue;
    const std::int64_t pos = future_schedule_pos_locked(rs, *it);
    if (pos < 0) {
      residue.push_back(*it);
    } else {
      scheduled.emplace_back(pos, *it);
    }
  }
  std::sort(scheduled.begin(), scheduled.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::uint64_t evicted = 0;
  const auto evict_id = [&](std::int64_t id) {
    const auto ce = rs.cache.find(id);
    rs.cache_bytes -= ce->second.bytes;
    rs.lru.erase(ce->second.lru_it);
    rs.cache.erase(ce);
    ++evicted;
  };
  for (std::size_t i = 0; over() && i < residue.size(); ++i) evict_id(residue[i]);
  for (std::size_t i = 0; over() && i < scheduled.size(); ++i) {
    evict_id(scheduled[i].second);
  }
  if (evicted > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.cache_evictions += evicted;
  }
}

std::pair<Tensor, Tensor> DistStore::consume_locked(RankState& rs, std::int64_t i) {
  auto it = rs.cache.find(i);
  CacheEntry& e = it->second;
  rs.lru.splice(rs.lru.begin(), rs.lru, e.lru_it);
  if (e.pins > 0) --e.pins;
  // Consuming a scheduled snapshot advances the schedule cursor past
  // its first unconsumed occurrence: every position at or before it is
  // now in the past for eviction purposes (later occurrences of the
  // same id — next epoch's reuse — stay future).
  const auto sp = rs.schedule_pos.find(i);
  if (sp != rs.schedule_pos.end()) {
    const auto p = std::lower_bound(sp->second.begin(), sp->second.end(),
                                    rs.schedule_progress);
    if (p != sp->second.end()) rs.schedule_progress = *p + 1;
  }
  // Handles (shared storage) taken before the eviction pass may drop
  // the freshly unpinned entry from a zero/tiny-capacity cache.
  Tensor x = e.x;
  Tensor y = e.y;
  evict_over_capacity_locked(rs);
  return {x, y};
}

void DistStore::classify_locked(RankState& rs, Request& req, double window_seconds) {
  req.classified = true;
  // The window is real compute the modeled fetch hid behind; only the
  // remainder stays on the critical path.
  const double exposed = std::max(0.0, req.modeled_seconds - window_seconds);
  rs.pending_exposed_seconds += exposed;
  std::lock_guard<std::mutex> lk(mu_);
  stats_.exposed_seconds += exposed;
  stats_.overlapped_seconds += req.modeled_seconds - exposed;
}

void DistStore::retire_undelivered_locked(RankState& rs) {
  for (auto& [id, req] : rs.in_flight) {
    (void)id;
    if (!req->classified) classify_locked(rs, *req, kNeverWaited);
  }
  rs.in_flight.clear();
  // Consumed by a prefetch worker but never delivered: the consumer
  // never computed on them.
  for (auto& req : rs.awaiting_delivery) {
    if (!req->classified) classify_locked(rs, *req, kNeverWaited);
  }
  rs.awaiting_delivery.clear();
}

std::shared_ptr<DistStore::Request> DistStore::announce_locked(
    int rank, RankState& rs, const std::vector<std::int64_t>& ids) {
  const FetchModel::Price p = model_.price(rank, ids);
  const std::vector<std::int64_t>& remote = p.remote_ids;
  // Announce-once/consume-once: a second announcement of an id whose
  // first is still outstanding (in flight, or earlier in this batch)
  // would unbalance its pin and leak the older request unclassified —
  // fail loudly on misuse (validated before anything is recorded).
  for (std::size_t j = 0; j < remote.size(); ++j) {
    if (rs.in_flight.count(remote[j]) != 0 ||
        std::find(remote.begin(), remote.begin() + static_cast<std::ptrdiff_t>(j),
                  remote[j]) != remote.begin() + static_cast<std::ptrdiff_t>(j)) {
      throw std::logic_error("DistStore: snapshot " + std::to_string(remote[j]) +
                             " announced twice without an intervening fetch");
    }
  }
  // Pin what is resident, so eviction cannot take it, and make room
  // for the rest before copying it: the copies then reuse the blocks
  // of the entries they displace, which keeps a staging thread's pool
  // at the cache's size.
  std::vector<char> resident(remote.size(), 0);
  std::int64_t misses = 0;
  for (std::size_t j = 0; j < remote.size(); ++j) {
    const auto it = rs.cache.find(remote[j]);
    if (it == rs.cache.end()) {
      ++misses;
      continue;
    }
    ++it->second.pins;
    rs.lru.splice(rs.lru.begin(), rs.lru, it->second.lru_it);
    resident[j] = 1;
  }
  evict_over_capacity_locked(rs, misses);
  // Stage: every miss is a deep copy of the owning shard's snapshot —
  // the remote bytes physically moving.  A failed copy
  // (OutOfMemoryError) unpins and rethrows before anything of the
  // batch is recorded or marked in flight.
  std::vector<std::pair<Tensor, Tensor>> copies(remote.size());
  try {
    for (std::size_t j = 0; j < remote.size(); ++j) {
      if (resident[j]) continue;
      const auto [xv, yv] = dataset_.get(remote[j]);
      copies[j] = {xv.clone(), yv.clone()};
    }
  } catch (...) {
    for (std::size_t j = 0; j < remote.size(); ++j) {
      if (resident[j]) --rs.cache.find(remote[j])->second.pins;
    }
    throw;
  }

  std::shared_ptr<Request> req;
  if (!remote.empty()) {
    req = std::make_shared<Request>(Request{p.seconds, std::chrono::steady_clock::now(),
                                            std::this_thread::get_id()});
  }
  std::uint64_t copied = 0;
  for (std::size_t j = 0; j < remote.size(); ++j) {
    rs.in_flight.emplace(remote[j], req);
    if (resident[j]) continue;
    auto& [x, y] = copies[j];
    const std::int64_t moved =
        static_cast<std::int64_t>(x.storage_bytes() + y.storage_bytes());
    rs.lru.push_front(remote[j]);
    rs.cache.emplace(remote[j],
                     CacheEntry{std::move(x), std::move(y), rs.lru.begin(), moved, 1});
    rs.cache_bytes += moved;
    copied += static_cast<std::uint64_t>(moved);
  }
  // The cache absorbed every resident id the model priced: a
  // snapshot's worth of modeled bytes each that did not physically
  // move.
  const std::uint64_t hits = remote.size() - static_cast<std::uint64_t>(misses);
  std::lock_guard<std::mutex> g(mu_);
  stats_.local_snapshots += p.local;
  stats_.remote_snapshots += p.remote;
  stats_.remote_bytes += p.bytes;
  stats_.request_messages += p.messages;
  stats_.modeled_seconds += p.seconds;
  stats_.bytes_copied += copied;
  stats_.cache_hits += hits;
  stats_.cache_hit_bytes += hits * static_cast<std::uint64_t>(model_.snapshot_bytes());
  return req;
}

void DistStore::prefetch_batch(int rank, const std::vector<std::int64_t>& ids) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  announce_locked(rank, rs, ids);
}

std::pair<Tensor, Tensor> DistStore::fetch(int rank, std::int64_t i) {
  const int own = model_.owner(i);
  RankState& rs = rank_state(rank);
  if (own == rank) return dataset_.get(i);  // zero-copy view of the owned shard

  std::lock_guard<std::mutex> lk(rs.m);
  auto fit = rs.in_flight.find(i);
  if (fit == rs.in_flight.end()) {
    // Unannounced (or abandoned) id: it travels as its own
    // one-snapshot request, staged here and exposed in full.
    classify_locked(rs, *announce_locked(rank, rs, {i}), /*window_seconds=*/0.0);
    fit = rs.in_flight.find(i);
  }
  const std::shared_ptr<Request> req = std::move(fit->second);
  rs.in_flight.erase(fit);
  if (!req->classified && !req->needed) {
    req->needed = true;
    rs.awaiting_delivery.push_back(req);
  }
  return consume_locked(rs, i);
}

void DistStore::abandon_prefetches(int rank) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  retire_undelivered_locked(rs);
  for (auto& [id, entry] : rs.cache) {
    (void)id;
    entry.pins = 0;
  }
  // Keep the announced schedule across the boundary: it already
  // extends into the next epoch (loaders announce two epochs' worth),
  // so residue the coming epoch reuses holds a future position during
  // this eviction pass instead of looking like dead weight.  Positions
  // belonging to the truncated remainder of the current epoch are
  // stale, but only transiently — the next start_epoch replaces the
  // whole schedule — and capacity is still enforced below either way.
  evict_over_capacity_locked(rs);
}

void DistStore::notify_batch_delivered(int rank) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  if (rs.awaiting_delivery.empty()) return;
  const std::shared_ptr<Request> req = std::move(rs.awaiting_delivery.front());
  rs.awaiting_delivery.pop_front();
  // A prefetch worker announced and staged the batch ahead of the
  // consumer's compute, so the window runs to this delivery.  A
  // consumer that announced the batch itself waited for its own
  // copies, and that wait hid nothing.
  const double window =
      req->announced_by == std::this_thread::get_id()
          ? 0.0
          : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          req->announced_at)
                .count();
  classify_locked(rs, *req, window);
}

void DistStore::announce_schedule(int rank, const std::vector<std::int64_t>& ids) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  rs.schedule_pos.clear();
  rs.schedule_progress = 0;
  std::int64_t pos = 0;
  // Ids may repeat (current epoch + next epoch in one announcement);
  // record every position, ascending by construction.
  for (std::int64_t id : ids) rs.schedule_pos[id].push_back(pos++);
}

double DistStore::drain_modeled_seconds(int rank) {
  RankState& rs = rank_state(rank);
  std::lock_guard<std::mutex> lk(rs.m);
  const double out = rs.pending_exposed_seconds;
  rs.pending_exposed_seconds = 0.0;
  return out;
}

StoreStats DistStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace pgti::dist
