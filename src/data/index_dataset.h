// Index-batching (the paper's primary contribution, §4.1).
//
// Instead of materializing every overlapping snapshot, IndexDataset
// keeps exactly one standardized copy of the raw series plus an array
// of window-start graph IDs.  Snapshot i is reconstructed at request
// time as two zero-copy views:
//
//   x_i = data[start_i           : start_i + horizon]
//   y_i = data[start_i + horizon : start_i + 2*horizon]
//
// which is paper Fig. 4 verbatim.  Space usage follows Eq. (2).  The
// same class implements GPU-index-batching: constructed with a
// SimDevice, the single raw copy is uploaded once (one PCIe crossing)
// and all snapshot views alias device memory, so batch assembly never
// touches the host again.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "data/preprocess.h"
#include "device/device.h"
#include "tensor/tensor.h"

namespace pgti::data {

class IndexDataset {
 public:
  /// CPU index-batching: one standardized copy of raw [T, N, 1] in
  /// host memory (time feature appended per spec).
  IndexDataset(const Tensor& raw, const DatasetSpec& spec);

  /// GPU-index-batching: the copy lives in `device` memory; exactly
  /// one host-to-device transfer is performed, up front.
  IndexDataset(const Tensor& raw, const DatasetSpec& spec, SimDevice& device);

  ~IndexDataset();

  IndexDataset(const IndexDataset&) = delete;
  IndexDataset& operator=(const IndexDataset&) = delete;
  IndexDataset(IndexDataset&&) = default;

  std::int64_t num_snapshots() const {
    return static_cast<std::int64_t>(starts_.size());
  }

  /// Zero-copy snapshot reconstruction (paper Fig. 4): both tensors
  /// are views of the single data copy; no bytes are moved.
  std::pair<Tensor, Tensor> get(std::int64_t i) const;

  /// The window-start graph IDs ("indices" in Fig. 4).
  const std::vector<std::int64_t>& starts() const noexcept { return starts_; }

  const Tensor& data() const noexcept { return data_; }
  const StandardScaler& scaler() const noexcept { return scaler_; }
  const SplitRanges& splits() const noexcept { return splits_; }
  const DatasetSpec& spec() const noexcept { return spec_; }
  MemorySpaceId space() const { return data_.space(); }

  /// Builds an IndexDataset holding only raw entries
  /// [entry_begin, entry_end) — the partitioned variant used by
  /// generalized-distributed-index-batching (paper §5.4).  Snapshot
  /// ids remain global; scaler statistics must be supplied (they are
  /// computed from the global training range).
  IndexDataset(const Tensor& raw_partition, const DatasetSpec& spec,
               std::int64_t entry_begin, const StandardScaler& scaler,
               std::int64_t snapshot_begin, std::int64_t snapshot_end);

 private:
  void init_from_stage1(Tensor stage1, const DatasetSpec& spec);
  void track_index_array();

  DatasetSpec spec_;
  Tensor data_;  // [T_local, N, F], standardized
  std::vector<std::int64_t> starts_;
  StandardScaler scaler_;
  SplitRanges splits_;
  std::int64_t entry_offset_ = 0;
  std::size_t tracked_index_bytes_ = 0;
};

}  // namespace pgti::data
