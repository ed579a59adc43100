// Shared helpers for the experiment-reproduction benches.
//
// Every bench prints:
//   * the paper's published numbers for its table/figure,
//   * our measured/modeled numbers at the configured scale,
//   * whether the paper's qualitative claim reproduces.
// Scale and epoch counts are tunable via PGTI_BENCH_SCALE /
// PGTI_BENCH_EPOCHS so the suite finishes quickly by default but can
// be pushed toward fidelity on bigger machines.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pgt_i.h"
#include "runtime/memory_tracker.h"

namespace pgti::bench {

/// Tracker-charged heap allocations so far (process-wide, all spaces).
/// Diff around a region to count its real heap traffic; pool hits from
/// the tensor arena are excluded by construction (DESIGN.md §16), so
/// the delta is the allocs-per-iteration column the kernel benches
/// print.
inline std::uint64_t heap_allocs() {
  return MemoryTracker::instance().heap_allocs_total();
}

inline double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double x = std::atof(v);
    if (x > 0.0) return x;
  }
  return fallback;
}

inline int env_int(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const int x = std::atoi(v);
    if (x > 0) return x;
  }
  return fallback;
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("=============================================================\n");
}

inline void note(const std::string& text) { std::printf("note: %s\n", text.c_str()); }

inline void verdict(bool ok, const std::string& claim) {
  std::printf("[%s] %s\n", ok ? "REPRODUCED" : "DIVERGED", claim.c_str());
}

inline std::string gb(double bytes) { return format_bytes(bytes); }

/// ClusterModel parameters for the full-size PeMS + DCRNN workload,
/// calibrated to the paper's single-GPU anchor (Table 4: 333.58 min
/// for 30 epochs) — see EXPERIMENTS.md for the calibration notes.
inline dist::ClusterModelParams pems_cluster_params() {
  dist::ClusterModelParams p;
  const auto spec = data::spec_for(data::DatasetKind::kPems);
  const auto splits = data::split_ranges(spec.num_snapshots());
  p.train_samples = splits.train_end;
  p.batch_per_worker = spec.batch_size;
  p.model_parameters = 250000;  // DCRNN, hidden 64, K=2, 2+2 layers
  p.sample_bytes = 2 * spec.horizon * spec.nodes * spec.features *
                   static_cast<std::int64_t>(sizeof(float));
  p.dataset_bytes = spec.entries * spec.nodes * spec.features *
                    static_cast<std::int64_t>(sizeof(float));
  p.epochs = 30;
  // 333.58 min / 30 epochs over the training shard.
  p.t_sample = 333.58 * 60.0 / 30.0 / static_cast<double>(p.train_samples);
  p.index_preprocess_s = 26.05;   // paper §5.2 measured
  p.ddp_preprocess_base_s = 120.0;
  p.ddp_preprocess_scatter_per_worker_s = 1.45;  // 305 s at 128 workers
  p.epoch_fixed_s = 1.0;
  return p;
}

}  // namespace pgti::bench
