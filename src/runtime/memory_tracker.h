// Memory accounting for simulated memory spaces (host RAM, simulated GPUs).
//
// The paper's headline claims are about *peak memory*: standard ST-GNN
// preprocessing OOMs a 512 GB Polaris node on PeMS while index-batching
// peaks at 45.75 GB (paper Fig. 2/6, Tables 2-4).  Every tensor
// allocation in this library is routed through MemoryTracker so that
// peak usage, usage timelines, and configurable OOM limits reproduce
// those experiments faithfully on scaled-down data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace pgti {

/// Thrown when an allocation would push a memory space past its
/// configured limit.  Mirrors the OOM crashes in paper Fig. 2.
class OutOfMemoryError : public std::runtime_error {
 public:
  OutOfMemoryError(const std::string& space, std::size_t requested,
                   std::size_t in_use, std::size_t limit);

  std::size_t requested() const noexcept { return requested_; }
  std::size_t in_use() const noexcept { return in_use_; }
  std::size_t limit() const noexcept { return limit_; }

 private:
  std::size_t requested_;
  std::size_t in_use_;
  std::size_t limit_;
};

/// Identifier of a memory space.  Space 0 is always "host".
using MemorySpaceId = int;

inline constexpr MemorySpaceId kHostSpace = 0;

/// A single (usage, label) sample on a space's usage timeline.
struct MemorySample {
  double progress = 0.0;  ///< caller-supplied progress marker (0..1 or seconds)
  std::size_t bytes = 0;  ///< bytes in use when sampled
  std::string label;      ///< optional phase label ("preprocess", "epoch 3", ...)
};

/// Point-in-time statistics for one memory space.
struct MemorySpaceStats {
  std::string name;
  std::size_t current = 0;
  std::size_t peak = 0;
  std::size_t limit = 0;  ///< 0 == unlimited
  std::uint64_t alloc_count = 0;       ///< every charge (heap or pool-served)
  std::uint64_t heap_alloc_count = 0;  ///< charges that actually hit the heap
};

/// Process-wide registry of memory spaces.
///
/// Thread-safe.  Allocation bookkeeping is performed by tensor Storage;
/// user code normally only reads statistics and sets limits.
class MemoryTracker {
 public:
  static MemoryTracker& instance();

  /// Registers (or looks up) a named space and returns its id.
  MemorySpaceId register_space(const std::string& name);

  /// Sets the capacity of a space in bytes.  0 removes the limit.
  void set_limit(MemorySpaceId space, std::size_t bytes);

  /// Records an allocation; throws OutOfMemoryError when over limit.
  /// `from_heap` distinguishes real heap allocations from charges
  /// served by a pool (TensorArena reuse): both count toward usage,
  /// limits, and alloc_count, but only heap allocations advance
  /// heap_alloc_count — the number the "alloc-free after warmup"
  /// claims are measured against.
  void on_alloc(MemorySpaceId space, std::size_t bytes, bool from_heap = true);

  /// Records a deallocation.
  void on_free(MemorySpaceId space, std::size_t bytes) noexcept;

  std::size_t current(MemorySpaceId space) const;
  std::size_t peak(MemorySpaceId space) const;
  MemorySpaceStats stats(MemorySpaceId space) const;

  /// Resets the peak of a space to its current usage (for scoped peaks).
  void reset_peak(MemorySpaceId space);

  /// Appends a sample to the space's usage timeline.
  void sample(MemorySpaceId space, double progress, const std::string& label = {});
  std::vector<MemorySample> timeline(MemorySpaceId space) const;
  void clear_timeline(MemorySpaceId space);

  /// Total heap allocations across all spaces since process start.
  /// EpochEngine snapshots this around each train step to compute the
  /// per-step delta surfaced as TrainResult/DistResult.allocs_last_step.
  std::uint64_t heap_allocs_total() const;

 private:
  MemoryTracker();

  struct Space {
    std::string name;
    std::size_t current = 0;
    std::size_t peak = 0;
    std::size_t limit = 0;
    std::uint64_t alloc_count = 0;
    std::uint64_t heap_alloc_count = 0;
    std::vector<MemorySample> timeline;
  };

  mutable std::mutex mu_;
  std::vector<Space> spaces_;
  std::uint64_t heap_allocs_total_ = 0;
};

/// RAII helper: resets a space's peak on construction and reports the
/// peak observed during its lifetime.
class ScopedPeakWatch {
 public:
  explicit ScopedPeakWatch(MemorySpaceId space);
  std::size_t peak_bytes() const;

 private:
  MemorySpaceId space_;
  std::size_t base_;
};

/// Pretty-prints a byte count ("45.75 GB").
std::string format_bytes(double bytes);

}  // namespace pgti
