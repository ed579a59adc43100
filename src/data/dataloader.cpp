#include "data/dataloader.h"

#include <algorithm>
#include <stdexcept>

#include "runtime/rng.h"

namespace pgti::data {

std::vector<std::int64_t> sample_epoch(std::int64_t range_begin, std::int64_t range_end,
                                       const SamplerOptions& options, int epoch) {
  const std::int64_t n = range_end - range_begin;
  if (n <= 0) return {};
  if (options.world < 1 || options.rank < 0 || options.rank >= options.world) {
    throw std::invalid_argument("sample_epoch: bad rank/world");
  }

  std::vector<std::int64_t> all(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = range_begin + i;

  const std::int64_t chunk = (n + options.world - 1) / options.world;
  const std::int64_t lo = std::min<std::int64_t>(chunk * options.rank, n);
  const std::int64_t hi = std::min<std::int64_t>(lo + chunk, n);

  switch (options.mode) {
    case ShuffleMode::kNone: {
      return {all.begin() + lo, all.begin() + hi};
    }
    case ShuffleMode::kGlobal: {
      // Same seed on every rank -> identical permutation everywhere;
      // each rank takes a disjoint chunk.  No communication needed.
      Rng rng(options.seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(epoch));
      rng.shuffle(all);
      return {all.begin() + lo, all.begin() + hi};
    }
    case ShuffleMode::kLocalPartition: {
      // Fixed partition; shuffle only inside it.
      std::vector<std::int64_t> part(all.begin() + lo, all.begin() + hi);
      Rng rng(options.seed * 0x85ebca6bULL + static_cast<std::uint64_t>(epoch) * 1315423911ULL +
              static_cast<std::uint64_t>(options.rank + 1));
      rng.shuffle(part);
      return part;
    }
    case ShuffleMode::kBatchLevel: {
      // Fixed partition; fixed batch contents; shuffled batch order.
      std::vector<std::int64_t> part(all.begin() + lo, all.begin() + hi);
      const std::int64_t b = std::max<std::int64_t>(1, options.batch_size);
      const std::int64_t num_batches =
          (static_cast<std::int64_t>(part.size()) + b - 1) / b;
      std::vector<std::int64_t> batch_order(static_cast<std::size_t>(num_batches));
      for (std::int64_t i = 0; i < num_batches; ++i) {
        batch_order[static_cast<std::size_t>(i)] = i;
      }
      Rng rng(options.seed * 0xc2b2ae35ULL + static_cast<std::uint64_t>(epoch) * 2654435761ULL +
              static_cast<std::uint64_t>(options.rank + 1));
      rng.shuffle(batch_order);
      std::vector<std::int64_t> out;
      out.reserve(part.size());
      for (std::int64_t bi : batch_order) {
        const std::int64_t s = bi * b;
        const std::int64_t e = std::min<std::int64_t>(s + b,
                                                      static_cast<std::int64_t>(part.size()));
        for (std::int64_t i = s; i < e; ++i) out.push_back(part[static_cast<std::size_t>(i)]);
      }
      return out;
    }
  }
  throw std::logic_error("sample_epoch: unknown shuffle mode");
}

DataLoader::DataLoader(const SnapshotSource& source, const LoaderOptions& options,
                       std::int64_t range_begin, std::int64_t range_end)
    : source_(&source),
      options_(options),
      range_begin_(range_begin),
      range_end_(range_end) {
  if (range_begin < 0 || range_end > source.num_snapshots() || range_begin > range_end) {
    throw std::out_of_range("DataLoader: bad snapshot range");
  }
  if (options.batch_size < 1) {
    throw std::invalid_argument("DataLoader: batch_size must be >= 1");
  }
  const SamplerOptions& s = options.sampler;
  if (s.world < 1 || s.rank < 0 || s.rank >= s.world) {
    throw std::invalid_argument("DataLoader: sampler needs 0 <= rank < world");
  }
}

void DataLoader::start_epoch(int epoch) {
  SamplerOptions s = options_.sampler;
  s.batch_size = options_.batch_size;
  order_ = sample_epoch(range_begin_, range_end_, s, epoch);
  cursor_ = 0;
  if (options_.prefetch_lookahead > 0) {
    // A truncated previous epoch may have left batches that were
    // staged but never delivered; release them first.
    source_->abandon_prefetches();
    // Announce the epoch's full consumption order (batch by batch,
    // respecting drop_last and the max-batches cap): schedule-aware
    // caches evict around it — an entry scheduled for a nearer batch
    // outlives already-consumed ones.  The NEXT epoch's order is
    // already a pure function of (seed, epoch + 1), so append it too:
    // end-of-epoch residue the coming epoch will reuse then carries a
    // future schedule position instead of looking like dead weight and
    // being evicted at the boundary.
    schedule_ids_.clear();
    append_epoch_batches(order_, schedule_ids_);
    append_epoch_batches(sample_epoch(range_begin_, range_end_, s, epoch + 1),
                         schedule_ids_);
    source_->announce_schedule(schedule_ids_);
  }
}

void DataLoader::append_epoch_batches(const std::vector<std::int64_t>& order,
                                      std::vector<std::int64_t>& out) const {
  std::int64_t batches = 0;
  for (std::size_t c = 0; c < order.size();
       c += static_cast<std::size_t>(options_.batch_size)) {
    if (max_batches_ >= 0 && batches >= max_batches_) break;
    const std::int64_t remaining =
        static_cast<std::int64_t>(order.size()) - static_cast<std::int64_t>(c);
    const std::int64_t b = std::min<std::int64_t>(options_.batch_size, remaining);
    if (options_.drop_last && b < options_.batch_size) break;
    out.insert(out.end(), order.begin() + static_cast<std::ptrdiff_t>(c),
               order.begin() + static_cast<std::ptrdiff_t>(c) +
                   static_cast<std::ptrdiff_t>(b));
    ++batches;
  }
}

std::int64_t DataLoader::samples_per_epoch() const {
  SamplerOptions s = options_.sampler;
  s.batch_size = options_.batch_size;
  // Chunk arithmetic only; no RNG draw needed.
  const std::int64_t n = range_end_ - range_begin_;
  const std::int64_t chunk = (n + s.world - 1) / s.world;
  const std::int64_t lo = std::min<std::int64_t>(chunk * s.rank, n);
  const std::int64_t hi = std::min<std::int64_t>(lo + chunk, n);
  return hi - lo;
}

std::int64_t DataLoader::batches_per_epoch() const {
  const std::int64_t n = samples_per_epoch();
  return options_.drop_last ? n / options_.batch_size
                            : (n + options_.batch_size - 1) / options_.batch_size;
}

void DataLoader::next_batch_ids(std::vector<std::int64_t>& out) const {
  out.clear();
  if (max_batches_ >= 0 &&
      static_cast<std::int64_t>(cursor_) >= max_batches_ * options_.batch_size) {
    return;
  }
  const std::int64_t remaining = static_cast<std::int64_t>(order_.size()) -
                                 static_cast<std::int64_t>(cursor_);
  if (remaining <= 0) return;
  const std::int64_t b = std::min<std::int64_t>(options_.batch_size, remaining);
  if (options_.drop_last && b < options_.batch_size) return;
  out.insert(out.end(), order_.begin() + static_cast<std::ptrdiff_t>(cursor_),
             order_.begin() + static_cast<std::ptrdiff_t>(cursor_) +
                 static_cast<std::ptrdiff_t>(b));
}

bool DataLoader::next(Batch& out) {
  next_batch_ids(out.indices);
  if (out.indices.empty()) return false;
  const std::int64_t b = static_cast<std::int64_t>(out.indices.size());
  out.staged_at = std::chrono::steady_clock::now();
  out.modeled_staging_seconds = 0.0;

  const DatasetSpec& spec = source_->spec();
  const std::int64_t h = spec.horizon;
  const std::int64_t n = spec.nodes;
  const std::int64_t f = spec.features;
  const std::int64_t bmax = options_.batch_size;

  const bool on_device = options_.device != nullptr;
  const MemorySpaceId data_space = source_->space();
  const MemorySpaceId compute_space =
      on_device ? options_.device->space() : kHostSpace;

  // Lazily allocate reusable buffers.
  auto ensure = [&](Tensor& x, Tensor& y, MemorySpaceId space) {
    if (!x.defined()) {
      x = Tensor::empty({bmax, h, n, f}, space);
      y = Tensor::empty({bmax, h, n, 1}, space);
    }
  };

  // Choose the assembly target: directly into the compute-space buffer
  // when source data is already there, otherwise stage on host.
  const bool direct = data_space == compute_space;
  Tensor* asm_x;
  Tensor* asm_y;
  if (direct) {
    ensure(dev_x_, dev_y_, compute_space);
    asm_x = &dev_x_;
    asm_y = &dev_y_;
  } else {
    ensure(host_x_, host_y_, kHostSpace);
    asm_x = &host_x_;
    asm_y = &host_y_;
  }

  // Announce the whole batch right before staging it: remote-backed
  // sources move the missing snapshots in one consolidated request per
  // owner, on this thread.
  source_->prefetch_batch(out.indices);
  for (std::int64_t i = 0; i < b; ++i) {
    const auto [xv, yv] = source_->get(out.indices[static_cast<std::size_t>(i)]);
    asm_x->select(0, i).copy_from(xv);
    // Target is the metric feature only.
    asm_y->select(0, i).copy_from(yv.slice(-1, 0, 1));
  }
  cursor_ += static_cast<std::size_t>(b);

  if (!direct && on_device) {
    // Host-resident data, device compute: the staged batch crosses
    // PCIe (this is the per-batch transfer GPU-index-batching removes).
    ensure(dev_x_, dev_y_, compute_space);
    Tensor hx = host_x_.slice(0, 0, b);
    Tensor hy = host_y_.slice(0, 0, b);
    Tensor dx = dev_x_.slice(0, 0, b);
    Tensor dy = dev_y_.slice(0, 0, b);
    options_.device->upload_into(hx, dx);
    options_.device->upload_into(hy, dy);
    // Mirror the PcieModel charge upload_into just recorded so the
    // consumer can split it into overlapped/exposed without re-reading
    // the (shared) device ledger.
    const PcieModel& pcie = options_.device->pcie();
    out.modeled_staging_seconds =
        pcie.transfer_seconds(hx.numel() * static_cast<std::int64_t>(sizeof(float))) +
        pcie.transfer_seconds(hy.numel() * static_cast<std::int64_t>(sizeof(float)));
    out.x = dx;
    out.y = dy;
  } else {
    out.x = asm_x->slice(0, 0, b);
    out.y = asm_y->slice(0, 0, b);
  }
  out.size = b;
  return true;
}

}  // namespace pgti::data
