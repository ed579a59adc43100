#include "dist/snapshot_cache.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

namespace pgti::dist {

std::int64_t SnapshotCache::next_use(std::int64_t id) const {
  const auto it = schedule_.find(id);
  if (it == schedule_.end()) return -1;
  const auto p = std::lower_bound(it->second.begin(), it->second.end(), cursor_);
  return p == it->second.end() ? -1 : *p;
}

void SnapshotCache::evict_over(std::int64_t incoming) {
  const auto over = [&] {
    return size() + incoming > max_snapshots_ ||
           (max_bytes_ > 0 && bytes_ + incoming * snapshot_bytes_ > max_bytes_);
  };
  if (!over()) return;
  // One walk: every unpinned entry gets (tier, key), and victims go in
  // that order.  Keys are unique within a tier — recency stamps,
  // negated next positions (farthest first), ids — so the order does
  // not depend on the map's iteration order.  Pins, positions and the
  // retained range cannot change during the pass.
  std::vector<std::tuple<int, std::int64_t, std::int64_t>> victims;  // (tier, key, id)
  for (const auto& [id, e] : entries_) {
    if (e.pinned) continue;
    if (id >= retained_.first && id < retained_.second) {
      victims.emplace_back(2, id, id);
    } else if (const std::int64_t next = next_use(id); next >= 0) {
      victims.emplace_back(1, -next, id);
    } else {
      victims.emplace_back(0, static_cast<std::int64_t>(e.last_used), id);
    }
  }
  std::sort(victims.begin(), victims.end());
  for (std::size_t v = 0; v < victims.size() && over(); ++v) {
    const auto it = entries_.find(std::get<2>(victims[v]));
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    ++evictions_;
  }
}

SnapshotCache::Staged SnapshotCache::stage(const std::vector<std::int64_t>& ids,
                                           const Copier& copy) {
  for (auto j = ids.begin(); j != ids.end(); ++j) {
    if (pinned(*j) || std::find(ids.begin(), j, *j) != j) {
      throw std::logic_error("SnapshotCache: snapshot " + std::to_string(*j) +
                             " staged twice without an intervening consume");
    }
  }
  std::vector<std::int64_t> misses;
  for (std::int64_t id : ids) {
    const auto it = entries_.find(id);
    if (it == entries_.end()) {
      misses.push_back(id);
      continue;
    }
    it->second.pinned = true;
    it->second.last_used = ++clock_;
  }
  evict_over(static_cast<std::int64_t>(misses.size()));
  std::vector<std::pair<Tensor, Tensor>> copies;
  copies.reserve(misses.size());
  try {
    for (std::int64_t id : misses) copies.push_back(copy(id));
  } catch (...) {
    // The misses are not resident, so this unpins exactly the hits.
    for (std::int64_t id : ids) {
      if (contains(id)) entries_.at(id).pinned = false;
    }
    throw;
  }
  Staged staged{ids.size() - misses.size(), 0};
  for (std::size_t m = 0; m < misses.size(); ++m) {
    auto& [x, y] = copies[m];
    const auto b = static_cast<std::int64_t>(x.storage_bytes() + y.storage_bytes());
    entries_.emplace(misses[m], Entry{std::move(x), std::move(y), b, ++clock_, true});
    bytes_ += b;
    staged.bytes_copied += static_cast<std::uint64_t>(b);
  }
  return staged;
}

std::pair<Tensor, Tensor> SnapshotCache::consume(std::int64_t id) {
  Entry& e = entries_.at(id);
  e.pinned = false;
  e.last_used = ++clock_;
  // Every position at or before the next use is now past; a later
  // occurrence of the same id (the next epoch's) stays ahead.
  if (const std::int64_t next = next_use(id); next >= 0) cursor_ = next + 1;
  std::pair<Tensor, Tensor> out{e.x, e.y};
  evict_over(0);
  return out;
}

void SnapshotCache::release_all() {
  for (auto& kv : entries_) kv.second.pinned = false;
  evict_over(0);
}

void SnapshotCache::schedule(const std::vector<std::int64_t>& ids) {
  schedule_.clear();
  cursor_ = 0;
  std::int64_t pos = 0;
  for (std::int64_t id : ids) schedule_[id].push_back(pos++);
}

}  // namespace pgti::dist
