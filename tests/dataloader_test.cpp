#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "data/dataloader.h"
#include "data/synthetic.h"
#include "tensor/tensor_ops.h"

namespace pgti::data {
namespace {

DatasetSpec small_spec() {
  DatasetSpec spec = spec_for(DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  spec.batch_size = 16;
  return spec;
}

std::vector<std::int64_t> sorted(std::vector<std::int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------- samplers

TEST(Sampler, NoneIsSequentialChunk) {
  SamplerOptions opt{ShuffleMode::kNone, 1, 4, 1, 8};
  const auto idx = sample_epoch(0, 100, opt, 0);
  ASSERT_EQ(idx.size(), 25u);
  EXPECT_EQ(idx.front(), 25);
  EXPECT_EQ(idx.back(), 49);
}

TEST(Sampler, GlobalShuffleCoversRangeAcrossRanks) {
  std::vector<std::int64_t> all;
  for (int r = 0; r < 4; ++r) {
    SamplerOptions opt{ShuffleMode::kGlobal, r, 4, 7, 8};
    const auto part = sample_epoch(0, 103, opt, 3);
    all.insert(all.end(), part.begin(), part.end());
  }
  ASSERT_EQ(all.size(), 103u);
  const auto s = sorted(all);
  for (std::int64_t i = 0; i < 103; ++i) EXPECT_EQ(s[static_cast<std::size_t>(i)], i);
}

TEST(Sampler, GlobalShuffleDisjointAcrossRanks) {
  std::set<std::int64_t> seen;
  for (int r = 0; r < 3; ++r) {
    SamplerOptions opt{ShuffleMode::kGlobal, r, 3, 5, 8};
    for (std::int64_t i : sample_epoch(10, 70, opt, 1)) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate " << i;
    }
  }
}

TEST(Sampler, GlobalShuffleSameSeedSamePermutation) {
  SamplerOptions a{ShuffleMode::kGlobal, 0, 2, 9, 8};
  SamplerOptions b{ShuffleMode::kGlobal, 1, 2, 9, 8};
  // Concatenating both ranks' chunks reconstructs one permutation, and
  // it is identical when recomputed (communication-free agreement).
  auto a0 = sample_epoch(0, 50, a, 4);
  auto a1 = sample_epoch(0, 50, a, 4);
  EXPECT_EQ(a0, a1);
  auto b0 = sample_epoch(0, 50, b, 4);
  for (std::int64_t i : b0) {
    EXPECT_EQ(std::count(a0.begin(), a0.end(), i), 0) << "rank overlap";
  }
}

TEST(Sampler, GlobalShuffleChangesAcrossEpochs) {
  SamplerOptions opt{ShuffleMode::kGlobal, 0, 1, 11, 8};
  EXPECT_NE(sample_epoch(0, 64, opt, 0), sample_epoch(0, 64, opt, 1));
}

TEST(Sampler, LocalPartitionIsFixedAcrossEpochs) {
  SamplerOptions opt{ShuffleMode::kLocalPartition, 1, 4, 13, 8};
  const auto e0 = sorted(sample_epoch(0, 100, opt, 0));
  const auto e5 = sorted(sample_epoch(0, 100, opt, 5));
  EXPECT_EQ(e0, e5) << "local shuffling must keep the partition fixed";
  // But the order within the partition changes.
  EXPECT_NE(sample_epoch(0, 100, opt, 0), sample_epoch(0, 100, opt, 5));
}

TEST(Sampler, LocalPartitionDiffersByRank) {
  SamplerOptions a{ShuffleMode::kLocalPartition, 0, 2, 13, 8};
  SamplerOptions b{ShuffleMode::kLocalPartition, 1, 2, 13, 8};
  const auto pa = sorted(sample_epoch(0, 40, a, 0));
  const auto pb = sorted(sample_epoch(0, 40, b, 0));
  EXPECT_EQ(pa.back(), 19);
  EXPECT_EQ(pb.front(), 20);
}

TEST(Sampler, BatchLevelKeepsBatchContents) {
  SamplerOptions opt{ShuffleMode::kBatchLevel, 0, 1, 17, 8};
  const auto idx = sample_epoch(0, 64, opt, 2);
  ASSERT_EQ(idx.size(), 64u);
  // Every aligned group of 8 must be a contiguous run (fixed batch
  // contents), though batch order is shuffled.
  for (std::size_t b = 0; b < 8; ++b) {
    for (std::size_t i = 1; i < 8; ++i) {
      EXPECT_EQ(idx[b * 8 + i], idx[b * 8] + static_cast<std::int64_t>(i));
    }
  }
}

TEST(Sampler, BatchLevelShufflesBatchOrder) {
  SamplerOptions opt{ShuffleMode::kBatchLevel, 0, 1, 17, 8};
  const auto e0 = sample_epoch(0, 64, opt, 0);
  const auto e1 = sample_epoch(0, 64, opt, 1);
  EXPECT_NE(e0, e1);
  EXPECT_EQ(sorted(e0), sorted(e1));
}

TEST(Sampler, BadRankRejected) {
  SamplerOptions opt{ShuffleMode::kGlobal, 4, 4, 1, 8};
  EXPECT_THROW(sample_epoch(0, 10, opt, 0), std::invalid_argument);
}

TEST(Sampler, EmptyRange) {
  SamplerOptions opt{ShuffleMode::kGlobal, 0, 1, 1, 8};
  EXPECT_TRUE(sample_epoch(5, 5, opt, 0).empty());
}

// ------------------------------------------------------------- loader

class LoaderTest : public ::testing::Test {
 protected:
  LoaderTest() : spec_(small_spec()) {
    SensorNetwork net = network_for(spec_);
    raw_ = generate_signal(spec_, net, 55);
    ds_ = std::make_unique<IndexDataset>(raw_, spec_);
    source_ = std::make_unique<IndexSource>(*ds_);
  }

  DatasetSpec spec_;
  Tensor raw_;
  std::unique_ptr<IndexDataset> ds_;
  std::unique_ptr<IndexSource> source_;
};

TEST_F(LoaderTest, BatchShapes) {
  LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = SamplerOptions{ShuffleMode::kNone, 0, 1, 1, 8};
  DataLoader loader(*source_, opt, 0, 100);
  loader.start_epoch(0);
  Batch b;
  ASSERT_TRUE(loader.next(b));
  EXPECT_EQ(b.x.shape(), (Shape{8, spec_.horizon, spec_.nodes, spec_.features}));
  EXPECT_EQ(b.y.shape(), (Shape{8, spec_.horizon, spec_.nodes, 1}));
  EXPECT_EQ(b.size, 8);
  EXPECT_EQ(b.indices.size(), 8u);
}

TEST_F(LoaderTest, DropLastSkipsPartialBatch) {
  LoaderOptions opt;
  opt.batch_size = 16;
  opt.sampler = SamplerOptions{ShuffleMode::kNone, 0, 1, 1, 16};
  opt.drop_last = true;
  DataLoader loader(*source_, opt, 0, 40);
  loader.start_epoch(0);
  Batch b;
  int batches = 0;
  while (loader.next(b)) ++batches;
  EXPECT_EQ(batches, 2);
  EXPECT_EQ(loader.batches_per_epoch(), 2);
}

TEST_F(LoaderTest, KeepLastWhenNotDropping) {
  LoaderOptions opt;
  opt.batch_size = 16;
  opt.sampler = SamplerOptions{ShuffleMode::kNone, 0, 1, 1, 16};
  opt.drop_last = false;
  DataLoader loader(*source_, opt, 0, 40);
  loader.start_epoch(0);
  Batch b;
  std::int64_t total = 0;
  while (loader.next(b)) total += b.size;
  EXPECT_EQ(total, 40);
}

TEST_F(LoaderTest, BatchContentMatchesSnapshots) {
  LoaderOptions opt;
  opt.batch_size = 4;
  opt.sampler = SamplerOptions{ShuffleMode::kGlobal, 0, 1, 3, 4};
  DataLoader loader(*source_, opt, 0, 200);
  loader.start_epoch(1);
  Batch b;
  ASSERT_TRUE(loader.next(b));
  for (std::int64_t i = 0; i < b.size; ++i) {
    const auto [x, y] = ds_->get(b.indices[static_cast<std::size_t>(i)]);
    EXPECT_EQ(ops::max_abs_diff(b.x.select(0, i).contiguous(), x.contiguous()), 0.0f);
    EXPECT_EQ(ops::max_abs_diff(b.y.select(0, i).contiguous(),
                                y.slice(-1, 0, 1).contiguous()),
              0.0f);
  }
}

TEST_F(LoaderTest, HostDataDeviceComputeTransfersEveryBatch) {
  SimDevice& gpu = DeviceManager::instance().gpu(2);
  gpu.reset_stats();
  LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = SamplerOptions{ShuffleMode::kNone, 0, 1, 1, 8};
  opt.device = &gpu;
  DataLoader loader(*source_, opt, 0, 80);
  loader.start_epoch(0);
  Batch b;
  int batches = 0;
  while (loader.next(b)) {
    EXPECT_EQ(b.x.space(), gpu.space());
    ++batches;
  }
  // Two uploads per batch: x and y.
  EXPECT_EQ(gpu.stats().h2d_count, static_cast<std::uint64_t>(2 * batches));
}

TEST_F(LoaderTest, DeviceResidentDataTransfersNothing) {
  SimDevice& gpu = DeviceManager::instance().gpu(3);
  IndexDataset gpu_ds(raw_, spec_, gpu);
  IndexSource gpu_source(gpu_ds);
  gpu.reset_stats();  // discard the upfront upload
  LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = SamplerOptions{ShuffleMode::kNone, 0, 1, 1, 8};
  opt.device = &gpu;
  DataLoader loader(gpu_source, opt, 0, 80);
  loader.start_epoch(0);
  Batch b;
  while (loader.next(b)) {
    EXPECT_EQ(b.x.space(), gpu.space());
  }
  EXPECT_EQ(gpu.stats().h2d_count, 0u)
      << "GPU-index-batching must not cross PCIe during training";
}

TEST_F(LoaderTest, BuffersAreReusedAcrossBatches) {
  LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = SamplerOptions{ShuffleMode::kNone, 0, 1, 1, 8};
  DataLoader loader(*source_, opt, 0, 80);
  loader.start_epoch(0);
  Batch b;
  ASSERT_TRUE(loader.next(b));
  const std::size_t after_first = MemoryTracker::instance().current(kHostSpace);
  while (loader.next(b)) {
  }
  EXPECT_EQ(MemoryTracker::instance().current(kHostSpace), after_first)
      << "batch staging buffers must be reused, not reallocated";
}

TEST_F(LoaderTest, BadRangeRejected) {
  LoaderOptions opt;
  EXPECT_THROW(DataLoader(*source_, opt, -1, 10), std::out_of_range);
  EXPECT_THROW(DataLoader(*source_, opt, 0, source_->num_snapshots() + 1),
               std::out_of_range);
}

TEST_F(LoaderTest, NonPositiveBatchSizeRejected) {
  // Without the check, batches_per_epoch() divides by zero and a
  // lookahead start_epoch never advances past its first batch.
  for (std::int64_t batch_size : {0, -1}) {
    LoaderOptions opt;
    opt.batch_size = batch_size;
    opt.prefetch_lookahead = 2;
    EXPECT_THROW(DataLoader(*source_, opt, 0, 10), std::invalid_argument)
        << "batch_size " << batch_size;
  }
}

TEST(DataLoader, RejectsBadSamplerRankOrWorld) {
  // samples_per_epoch() divides by world and offsets by rank: without
  // the check a world of 0 constructs and then dies in
  // batches_per_epoch(), and a negative rank reports batches that
  // start_epoch() refuses to sample.
  const DatasetSpec spec = small_spec();
  const IndexDataset ds(generate_signal(spec, network_for(spec), 55), spec);
  const IndexSource source(ds);
  for (const auto& [rank, world] : {std::pair{0, 0}, {-1, 2}, {2, 2}}) {
    LoaderOptions opt;
    opt.batch_size = 8;
    opt.sampler = SamplerOptions{ShuffleMode::kGlobal, rank, world, 1, 8};
    EXPECT_THROW(DataLoader(source, opt, 0, 10), std::invalid_argument)
        << "rank " << rank << ", world " << world;
  }
}

TEST_F(LoaderTest, SamplesPerEpochSplitsEvenly) {
  LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = SamplerOptions{ShuffleMode::kGlobal, 2, 4, 1, 8};
  DataLoader loader(*source_, opt, 0, 103);
  EXPECT_EQ(loader.samples_per_epoch(), 26);  // ceil(103/4) chunking
}

}  // namespace
}  // namespace pgti::data
