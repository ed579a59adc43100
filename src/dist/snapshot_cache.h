// One rank's snapshot residency (DESIGN.md §9, §12, §17).
//
// A SnapshotCache holds the copied remote snapshots of one DistStore
// rank and makes every residency decision for them: the entries, each
// with its pin and its recency; the snapshot bound and the optional
// byte bound; the announced consumption schedule and its cursor; and a
// retained id range.  It is a value class with no mutex (its owner
// serializes it), no dataset and no FetchModel, so a test can drive it
// with small tensors.
//
// Pins.  stage() pins every id of an announced batch; consume() hands
// one to its fetch and unpins it.  A pinned entry is never evicted, so
// even a zero-capacity or byte-tight cache keeps it from its staging
// to its consumption.  An id is pinned at most once: staging it again
// before its consumption throws.  The owner reads the pin as the
// record of which ids are announced but not yet fetched.
//
// Eviction.  Whenever an entry count or byte total is over a bound,
// one walk picks victims among the unpinned entries, in three tiers:
//
//   1. residue (no remaining scheduled use, not retained), least
//      recently used first;
//   2. scheduled entries, farthest next use first (Belady's choice),
//      so a snapshot scheduled for a nearer batch outlives consumed
//      residue;
//   3. retained entries, lowest (stalest) id first.
//
// An entry both scheduled and retained counts as retained.  Training
// ranks install a schedule (the loader's two-epoch order) and retain
// nothing, so they never reach tier 3; a serving reader rank retains
// its hot window and installs no schedule.  Without either, eviction
// is plain LRU.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace pgti::dist {

class SnapshotCache {
 public:
  /// The caller's copy of one snapshot, (x, y).
  using Copier = std::function<std::pair<Tensor, Tensor>(std::int64_t id)>;

  /// What one stage() call did.
  struct Staged {
    std::uint64_t hits = 0;          ///< ids already resident
    std::uint64_t bytes_copied = 0;  ///< storage bytes of the inserted copies
  };

  /// `max_snapshots` bounds the entry count (0 is valid: an entry then
  /// lives only from its staging to its consumption); `max_bytes` adds
  /// a byte bound (0 = none); `snapshot_bytes` is the room stage()
  /// makes for each miss before copying it.
  SnapshotCache(std::int64_t max_snapshots, std::int64_t max_bytes,
                std::int64_t snapshot_bytes)
      : max_snapshots_(max_snapshots), max_bytes_(max_bytes),
        snapshot_bytes_(snapshot_bytes) {}

  /// Stages one announced batch: pins every resident id of `ids` and
  /// marks it used, evicts room for the misses, then calls `copy` for
  /// each miss and inserts the copies, pinned and most recent.  Making
  /// room first lets each copy reuse a block an eviction just freed.
  /// Throws std::logic_error, changing nothing, if an id repeats in
  /// `ids` or is already pinned.  If `copy` throws, the new pins are
  /// dropped, nothing is inserted, and the exception propagates.
  Staged stage(const std::vector<std::int64_t>& ids, const Copier& copy);

  /// Hands resident `id` to its consumer: unpins it, marks it used,
  /// moves the schedule cursor past its next scheduled use, and
  /// enforces the bounds (the returned handles survive the entry's
  /// eviction).  Throws std::out_of_range if `id` is not resident.
  std::pair<Tensor, Tensor> consume(std::int64_t id);

  /// Drops every pin (announcements nobody will consume) and enforces
  /// the bounds.
  void release_all();

  /// Installs the consumption order and rewinds the cursor.  Ids may
  /// repeat: loaders announce this epoch's order followed by the
  /// next's, so an id keeps its later position after its first
  /// consumption.
  void schedule(const std::vector<std::int64_t>& ids);

  /// Makes [begin, end) the retained range (empty when begin >= end).
  /// It applies from the next eviction on; nothing is evicted here.
  void retain(std::int64_t begin, std::int64_t end) { retained_ = {begin, end}; }

  bool contains(std::int64_t id) const { return entries_.count(id) != 0; }
  bool pinned(std::int64_t id) const {
    const auto it = entries_.find(id);
    return it != entries_.end() && it->second.pinned;
  }
  std::int64_t size() const { return static_cast<std::int64_t>(entries_.size()); }
  /// Entries evicted so far.
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    Tensor x, y;
    std::int64_t bytes = 0;
    std::uint64_t last_used = 0;  ///< recency stamp, larger = more recent
    bool pinned = false;
  };

  /// Evicts by the three tiers while the cache, plus `incoming`
  /// snapshots about to be inserted, is over either bound.
  void evict_over(std::int64_t incoming);
  /// First scheduled position of `id` at or past the cursor, or -1.
  std::int64_t next_use(std::int64_t id) const;

  std::int64_t max_snapshots_;
  std::int64_t max_bytes_;
  std::int64_t snapshot_bytes_;
  std::unordered_map<std::int64_t, Entry> entries_;
  std::int64_t bytes_ = 0;
  std::uint64_t clock_ = 0;  ///< last recency stamp handed out
  std::uint64_t evictions_ = 0;
  /// id -> every position (ascending) in the announced order.
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> schedule_;
  std::int64_t cursor_ = 0;  ///< positions before it are consumed
  std::pair<std::int64_t, std::int64_t> retained_{0, 0};
};

}  // namespace pgti::dist
