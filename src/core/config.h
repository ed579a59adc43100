// PGT-I public configuration types.
#pragma once

#include <cstdint>

#include "data/dataset_spec.h"
#include "data/dataloader.h"

namespace pgti::core {

/// How training batches are produced (paper §4.1).
enum class BatchingMode {
  kStandard,  ///< Algorithm 1: fully materialized x/y arrays
  kPadded,    ///< kStandard + the original DCRNN padded-copy dataloader
  kIndex,     ///< index-batching: host-resident single copy + views
  kGpuIndex,  ///< GPU-index-batching: device-resident single copy
};

/// Which sequence-to-sequence model trains.
enum class ModelKind { kPgtDcrnn, kDcrnn, kA3tgcn, kStllm };

/// Single-worker workflow configuration.
struct TrainConfig {
  data::DatasetSpec spec;
  ModelKind model = ModelKind::kPgtDcrnn;
  BatchingMode mode = BatchingMode::kIndex;
  int epochs = 10;
  float lr = 1e-3f;
  std::int64_t hidden_dim = 32;
  int diffusion_steps = 2;
  int num_layers = 2;  ///< DCRNN encoder/decoder depth
  std::uint64_t seed = 42;
  data::ShuffleMode shuffle = data::ShuffleMode::kGlobal;
  /// Train on a simulated device (GPU) vs. pure host execution.
  bool use_device = true;
  /// Record MemoryTracker timeline samples at phase/batch boundaries.
  bool record_timeline = false;
  /// Caps train batches per epoch (0 = no cap); benches use this to
  /// bound wall time at paper-faithful per-batch behaviour.
  std::int64_t max_batches_per_epoch = 0;
  std::int64_t max_val_batches = 0;
  /// Batches of lookahead in the single-process data pipeline (0 =
  /// loaders are driven synchronously).  With depth N the EpochEngine
  /// wraps each loader in a depth-N PrefetchLoader: batch staging —
  /// including the modeled PCIe upload of host-resident batches — runs
  /// up to N batches ahead on a worker thread and lands in
  /// compute-space (device) buffers, so only the *exposed* share of
  /// the modeled transfer leg stays on the critical path
  /// (TrainResult::exposed_transfer_seconds).  Batch sequences and
  /// losses are bit-identical across depths.
  int prefetch_depth = 0;
};

/// Distributed strategy (paper §4.2, §5.4).
enum class DistMode {
  kDistributedIndex,         ///< full local copy per worker, global shuffle
  kBaselineDdp,              ///< Dask-style partitioned store, global shuffle
  kGeneralizedIndex,         ///< partitioned index data, batch-level shuffle
  kBaselineDdpBatchShuffle,  ///< partitioned store, batch-level shuffle
};

/// When gradient all-reduces run relative to backward (DESIGN.md §13).
enum class GradOverlap {
  kOff,     ///< serial: backward completes, then every bucket reduces
  kStrict,  ///< ready-bucket overlap; losses bit-identical to kOff
  kStale1,  ///< bounded staleness: step k applies step k-1's buckets
};

/// Multi-worker workflow configuration.
struct DistConfig {
  data::DatasetSpec spec;
  ModelKind model = ModelKind::kPgtDcrnn;
  DistMode mode = DistMode::kDistributedIndex;
  int world = 4;
  int epochs = 10;
  float lr = 1e-3f;
  /// Apply the linear LR-scaling rule with a 3-epoch warmup (paper
  /// §5.3.3).
  bool scale_lr = false;
  std::int64_t hidden_dim = 32;
  int diffusion_steps = 2;
  std::uint64_t seed = 42;
  std::int64_t max_batches_per_epoch = 0;
  std::int64_t max_val_batches = 0;
  /// Per-rank LRU capacity (in snapshots) of the baseline store's
  /// remote-fetch cache; negative = auto (the store owns the default
  /// and sizes it to a couple of batches).  Any value >= 0 is honored
  /// exactly — announced snapshots are pinned until consumed, so even
  /// a zero-capacity cache never double-prices a consolidated fetch.
  std::int64_t store_cache_snapshots = -1;
  /// Byte bound on each rank's remote-fetch cache, applied on top of
  /// the snapshot bound; 0 = no byte bound.
  std::int64_t store_cache_bytes = 0;
  /// Batches of lookahead in the distributed data pipeline (0 = fully
  /// synchronous).  With depth N batch assembly runs through a depth-N
  /// PrefetchLoader ring whose worker announces each batch to the
  /// baseline store right before staging it, so the store copies the
  /// batch's remote snapshots on that worker, up to N batches ahead of
  /// consumption; loaders also announce the epoch schedule (which the
  /// store's cache evicts around).  Batch contents and losses are
  /// bit-identical across every depth; only the *exposed* share of
  /// modeled fetch time (what the cluster is charged) shrinks as depth
  /// grows.
  int prefetch_depth = 0;
  /// Gradient-plane overlap: fire per-bucket all-reduces from a
  /// per-rank comm thread as buckets become ready during backward
  /// (kStrict keeps losses bit-identical to kOff at every world size
  /// and prefetch depth; kStale1 trades one step of staleness for a
  /// fully hidden gradient sync).  DistResult splits the modeled
  /// grad-sync time into overlapped vs exposed seconds either way.
  GradOverlap grad_overlap = GradOverlap::kOff;
};

}  // namespace pgti::core
