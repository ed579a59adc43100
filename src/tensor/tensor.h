// Dense strided N-dimensional float tensor with zero-copy views.
//
// This is the substrate for the paper's central trick: index-batching
// reconstructs spatiotemporal snapshots as *views* of one raw array
// (paper Fig. 4, "NumPy views") instead of materializing overlapping
// copies.  slice()/select()/transpose() alias the parent storage; only
// clone()/contiguous()/to() allocate.  Every allocation is charged to a
// MemoryTracker space so peak-memory experiments are exact.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "runtime/arena.h"
#include "runtime/memory_tracker.h"
#include "runtime/rng.h"

namespace pgti {

/// Tensor extents, outermost dimension first.
using Shape = std::vector<std::int64_t>;

/// Product of extents (1 for rank-0).
std::int64_t shape_numel(const Shape& shape);

/// Human-readable "[a, b, c]".
std::string shape_to_string(const Shape& shape);

/// Reference-counted, memory-tracked flat buffer bound to one space.
/// When a runtime::ArenaScope is active on the allocating thread the
/// buffer is a recycled pool block (DESIGN.md §16); otherwise it comes
/// from the heap, zero-initialized, exactly as the seed allocator did.
class Storage {
 public:
  Storage(std::int64_t numel, MemorySpaceId space);
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() noexcept { return data_; }
  const float* data() const noexcept { return data_; }
  std::int64_t numel() const noexcept { return numel_; }
  MemorySpaceId space() const noexcept { return space_; }

 private:
  float* data_ = nullptr;
  runtime::ArenaBlock block_;
  std::int64_t numel_;
  MemorySpaceId space_;
};

/// Value-semantic strided tensor.  Copies share storage (views);
/// clone() deep-copies.
class Tensor {
 public:
  /// Empty (rank-0, no storage) tensor; numel() == 0.
  Tensor() = default;

  // --- factories -----------------------------------------------------
  static Tensor empty(const Shape& shape, MemorySpaceId space = kHostSpace);
  static Tensor zeros(const Shape& shape, MemorySpaceId space = kHostSpace);
  static Tensor full(const Shape& shape, float value, MemorySpaceId space = kHostSpace);
  static Tensor ones(const Shape& shape, MemorySpaceId space = kHostSpace);
  /// N(0, stddev^2) entries.
  static Tensor randn(const Shape& shape, Rng& rng, float stddev = 1.0f,
                      MemorySpaceId space = kHostSpace);
  /// U(lo, hi) entries.
  static Tensor uniform(const Shape& shape, Rng& rng, float lo, float hi,
                        MemorySpaceId space = kHostSpace);
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor arange(std::int64_t n, MemorySpaceId space = kHostSpace);
  /// 1-D tensor from values.
  static Tensor from_vector(const std::vector<float>& values,
                            MemorySpaceId space = kHostSpace);

  // --- geometry ------------------------------------------------------
  bool defined() const noexcept { return storage_ != nullptr; }
  int dim() const noexcept { return static_cast<int>(shape_.size()); }
  const Shape& shape() const noexcept { return shape_; }
  const Shape& strides() const noexcept { return strides_; }
  std::int64_t size(int d) const;
  std::int64_t numel() const noexcept;
  MemorySpaceId space() const;
  bool is_contiguous() const noexcept;
  /// True when both tensors alias the same underlying storage.
  bool shares_storage_with(const Tensor& other) const noexcept {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  // --- raw access ----------------------------------------------------
  float* data();
  const float* data() const;
  float& at(std::initializer_list<std::int64_t> idx);
  float at(std::initializer_list<std::int64_t> idx) const;
  /// Value of a one-element tensor.
  float item() const;

  // --- views (zero-copy; alias this tensor's storage) -----------------
  /// Subrange [start, start+length) along `d`; same rank.
  Tensor slice(int d, std::int64_t start, std::int64_t length) const;
  /// Index `idx` along `d`; rank reduced by one.
  Tensor select(int d, std::int64_t idx) const;
  /// Swapped dims view.
  Tensor transpose(int d0, int d1) const;
  /// Same data, new shape; requires contiguity (throws otherwise).
  Tensor reshape(const Shape& shape) const;

  // --- copies ----------------------------------------------------------
  /// Deep contiguous copy in this tensor's space.
  Tensor clone() const;
  /// Contiguous version (clone when strided, self when already dense).
  Tensor contiguous() const;
  /// Deep copy into another memory space (raw byte movement only; the
  /// device::TransferEngine wraps this to model PCIe time).
  Tensor to(MemorySpaceId space) const;

  // --- mutation --------------------------------------------------------
  void fill_(float value);
  /// Elementwise copy from `src` (same shape; either side may be strided).
  void copy_from(const Tensor& src);

  /// Bytes held by the underlying storage (shared across views).
  std::int64_t storage_bytes() const;

 private:
  Tensor(std::shared_ptr<Storage> storage, std::int64_t offset, Shape shape,
         Shape strides);

  static Shape contiguous_strides(const Shape& shape);
  std::int64_t linear_index(std::initializer_list<std::int64_t> idx) const;

  std::shared_ptr<Storage> storage_;
  std::int64_t offset_ = 0;
  Shape shape_;
  Shape strides_;
};

}  // namespace pgti
