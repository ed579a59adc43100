#include "dist/fetch_model.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pgti::dist {

FetchModel::FetchModel(std::int64_t num_snapshots, std::int64_t snapshot_bytes,
                       int world, NetworkModel network, bool consolidate_requests)
    : num_snapshots_(num_snapshots),
      snapshot_bytes_(snapshot_bytes),
      world_(world),
      chunk_(1),
      network_(network),
      consolidate_requests_(consolidate_requests) {
  if (num_snapshots < 1) {
    throw std::invalid_argument("FetchModel: num_snapshots must be >= 1");
  }
  if (world < 1) throw std::invalid_argument("FetchModel: world must be >= 1");
  chunk_ = (num_snapshots + world - 1) / world;
}

int FetchModel::owner(std::int64_t snapshot) const {
  if (snapshot < 0 || snapshot >= num_snapshots_) {
    throw std::out_of_range("FetchModel: snapshot " + std::to_string(snapshot) +
                            " outside [0, " + std::to_string(num_snapshots_) + ")");
  }
  return static_cast<int>(snapshot / chunk_);
}

std::pair<std::int64_t, std::int64_t> FetchModel::partition(int rank) const {
  if (rank < 0) {
    throw std::out_of_range("FetchModel: negative rank " + std::to_string(rank));
  }
  const std::int64_t lo = std::min(chunk_ * rank, num_snapshots_);
  const std::int64_t hi = std::min(lo + chunk_, num_snapshots_);
  return {lo, hi};
}

FetchModel::Price FetchModel::price(int rank,
                                    const std::vector<std::int64_t>& snapshots) const {
  Price p;
  std::vector<bool> owner_contacted;
  if (consolidate_requests_) {
    owner_contacted.assign(static_cast<std::size_t>(world_), false);
  }
  for (std::int64_t snapshot : snapshots) {
    const int own = owner(snapshot);
    if (own == rank) {
      ++p.local;
      continue;
    }
    ++p.remote;
    p.remote_ids.push_back(snapshot);
    if (consolidate_requests_) {
      if (!owner_contacted[static_cast<std::size_t>(own)]) {
        owner_contacted[static_cast<std::size_t>(own)] = true;
        ++p.messages;
      }
    } else {
      ++p.messages;
    }
  }
  p.bytes = p.remote * static_cast<std::uint64_t>(snapshot_bytes_);
  p.seconds =
      p.remote > 0 ? network_.fetch_seconds(static_cast<std::int64_t>(p.bytes),
                                            static_cast<std::int64_t>(p.messages))
                   : 0.0;
  return p;
}

}  // namespace pgti::dist
