// Experiment result records shared by trainers, benches, and tests.
#pragma once

#include <cstdint>
#include <vector>

#include "device/device.h"
#include "dist/comm.h"
#include "dist/dist_store.h"

namespace pgti::core {

struct EpochMetrics {
  int epoch = 0;
  double train_mae = 0.0;  ///< original units (scaler-inverse applied)
  double val_mae = 0.0;
  double wall_seconds = 0.0;
};

/// Single-worker workflow outcome.
struct TrainResult {
  std::vector<EpochMetrics> curve;
  double preprocess_seconds = 0.0;
  double train_seconds = 0.0;  ///< measured compute wall time
  double modeled_transfer_seconds = 0.0;  ///< PCIe model (device runs)
  /// Share of modeled_transfer_seconds still on the critical path
  /// after prefetch overlap: equal to modeled_transfer_seconds at
  /// prefetch_depth = 0; with a prefetch pipeline, each staged batch's
  /// upload hides behind the wall window between its staging and its
  /// consumption, and only the remainder is exposed.
  double exposed_transfer_seconds = 0.0;
  double best_val_mae = 0.0;
  std::size_t peak_host_bytes = 0;
  std::size_t peak_device_bytes = 0;
  /// Resident host bytes once preprocessing finished (the plateau the
  /// paper's Fig. 2 curves settle at; excludes the transient stack
  /// spike shared by all standard-pipeline variants).
  std::size_t resident_host_bytes = 0;
  TransferStats transfers;  ///< h2d/d2h ledger
  std::int64_t model_parameters = 0;
  std::int64_t train_samples = 0;
  double final_test_mse = 0.0;  ///< populated when a test pass runs
  /// Tracker-charged heap allocations during the last train step.
  /// With the tensor arena enabled (default) this is 0 once the
  /// first-step planning pass has populated the pool (DESIGN.md §16).
  std::uint64_t allocs_last_step = 0;

  double total_seconds() const { return preprocess_seconds + train_seconds; }
  /// Workflow time with modeled interconnect time added (the quantity
  /// compared across batching modes in Table 4).
  double total_with_transfers() const {
    return total_seconds() + modeled_transfer_seconds;
  }
};

/// Multi-worker workflow outcome (rank-0 view; metrics are globally
/// all-reduced).
struct DistResult {
  std::vector<EpochMetrics> curve;
  double preprocess_seconds = 0.0;
  double train_wall_seconds = 0.0;       ///< measured (oversubscribed threads)
  /// Modeled seconds of the job's collectives alone, as the recording
  /// rank charged them (CommContext::collective_seconds); fetch time
  /// charged to the same clock is not in it, so a store-backed and an
  /// index strategy running the same collectives report the same
  /// value, bit for bit.
  double modeled_allreduce_seconds = 0.0;
  /// Modeled fetch seconds the cluster was actually charged: the
  /// *exposed* share (store.exposed_seconds).  Without prefetch this
  /// equals store.modeled_seconds; with prefetch the overlapped share
  /// (store.overlapped_seconds) was hidden behind compute.
  double modeled_fetch_seconds = 0.0;
  /// Modeled gradient-sync seconds hidden under backward's tail /
  /// the next step's compute (rank 0's view; zero when grad_overlap
  /// is off).
  double grad_sync_overlapped_seconds = 0.0;
  /// Modeled gradient-sync seconds the training loop waited for.
  /// With grad_overlap off this is the full per-step bucket cost;
  /// with overlap on it is strictly lower whenever the network model
  /// charges a nonzero all-reduce cost (world > 1).
  double grad_sync_exposed_seconds = 0.0;
  double best_val_mae = 0.0;
  /// Host high-water mark since the job's set-up reset it.  For the
  /// index strategies it depends on how the W rank threads' dataset
  /// builds and step tensors interleave, so identical runs differ by
  /// a few hundred kB (207.45–207.96 MB over three `ddp-index` runs).
  std::size_t peak_host_bytes = 0;
  dist::CommStats comm;
  dist::StoreStats store;
  std::int64_t model_parameters = 0;
  int world = 1;
  /// Rank 0's tracker-charged heap allocations during its last train
  /// step (process-wide counter delta, so concurrent ranks can bleed
  /// into each other's windows; converges to 0 with the arena enabled
  /// once every rank's pool is warm).
  std::uint64_t allocs_last_step = 0;
};

}  // namespace pgti::core
