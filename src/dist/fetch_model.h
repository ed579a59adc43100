// Ownership and pricing of the partitioned snapshot store — the
// Dask-style remote-fetch model of the paper's DDP baseline.
//
// `num_snapshots` snapshots are owned contiguously (ceil-chunked) by
// `world` workers.  Pricing a batch for a rank counts its local and
// remote accesses and the request messages they need — one per owning
// peer with consolidate_requests (the Dask batching optimization §5.1
// applies to the baseline to keep the comparison fair), one per remote
// snapshot without — and prices the remote bytes with the
// NetworkModel.  Ranks at or past `world` own nothing, so every access
// they make is remote.
//
// DistStore prices every request it moves through this model; the
// ClusterModel-scale microbenches and the consolidation ablation use
// it directly, with no snapshot data behind it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dist/cluster_model.h"

namespace pgti::dist {

class FetchModel {
 public:
  /// The price of one announced batch for one rank.
  struct Price {
    std::uint64_t local = 0;     ///< accesses the rank owns (free)
    std::uint64_t remote = 0;    ///< accesses owned by another rank
    std::uint64_t messages = 0;  ///< request messages the remote ones need
    std::uint64_t bytes = 0;     ///< remote * snapshot_bytes
    double seconds = 0.0;        ///< NetworkModel::fetch_seconds(bytes, messages)
    std::vector<std::int64_t> remote_ids;  ///< in announcement order
  };

  FetchModel(std::int64_t num_snapshots, std::int64_t snapshot_bytes, int world,
             NetworkModel network, bool consolidate_requests = true);

  /// Owning rank of a snapshot; throws std::out_of_range for ids
  /// outside [0, num_snapshots).
  int owner(std::int64_t snapshot) const;

  /// [begin, end) snapshot range owned by `rank` (empty for ranks at or
  /// past world); throws std::out_of_range for a negative rank.
  std::pair<std::int64_t, std::int64_t> partition(int rank) const;

  /// Prices `snapshots` as one batch fetched by `rank`.
  Price price(int rank, const std::vector<std::int64_t>& snapshots) const;

  std::int64_t num_snapshots() const noexcept { return num_snapshots_; }
  std::int64_t snapshot_bytes() const noexcept { return snapshot_bytes_; }

 private:
  std::int64_t num_snapshots_;
  std::int64_t snapshot_bytes_;
  int world_;
  std::int64_t chunk_;
  NetworkModel network_;
  bool consolidate_requests_;
};

}  // namespace pgti::dist
