// The shared Trainer/DistTrainer epoch pipeline (DESIGN.md §12):
//
//  * BatchPipeline delivers the inner loader's exact batch sequence at
//    every prefetch depth (the bit-identical-losses contract) and
//    announces each batch once, in delivery order, on the thread that
//    stages it, never more than `depth` batches ahead of consumption;
//  * the single-process Trainer runs the same engine at depth 0/1/2/4
//    with identical losses for kIndex AND kGpuIndex, and a prefetched
//    device run hides part of the modeled PCIe leg
//    (exposed_transfer_seconds <= modeled_transfer_seconds);
//  * depth-N PrefetchLoader abort/restart stress — a TSan/ASan target:
//    this suite runs under both sanitizer passes via scripts/check.sh.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/epoch_engine.h"
#include "core/pgt_i.h"
#include "data/prefetch.h"
#include "data/synthetic.h"

namespace pgti::core {
namespace {

TrainConfig engine_config(BatchingMode mode) {
  TrainConfig cfg;
  cfg.spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  cfg.spec.horizon = 4;
  cfg.spec.batch_size = 8;
  cfg.model = ModelKind::kPgtDcrnn;
  cfg.mode = mode;
  cfg.epochs = 2;
  cfg.hidden_dim = 8;
  cfg.diffusion_steps = 1;
  cfg.max_batches_per_epoch = 6;
  cfg.max_val_batches = 3;
  cfg.seed = 99;
  return cfg;
}

void expect_identical_curves(const TrainResult& a, const TrainResult& b,
                             const char* what) {
  ASSERT_EQ(a.curve.size(), b.curve.size()) << what;
  for (std::size_t e = 0; e < a.curve.size(); ++e) {
    EXPECT_EQ(a.curve[e].train_mae, b.curve[e].train_mae) << what << " epoch " << e;
    EXPECT_EQ(a.curve[e].val_mae, b.curve[e].val_mae) << what << " epoch " << e;
  }
  EXPECT_EQ(a.final_test_mse, b.final_test_mse) << what;
}

// ------------------------------------------------- BatchPipeline

// Forwards to an IndexSource and records every prefetch_batch
// announcement, and the thread that made it, in call order.  The
// consumer reads the count while a prefetch worker announces, hence
// the lock.
class RecordingSource final : public data::SnapshotSource {
 public:
  struct Announcement {
    std::vector<std::int64_t> ids;
    std::thread::id thread;
  };

  explicit RecordingSource(const data::IndexDataset& ds) : inner_(ds) {}
  std::pair<Tensor, Tensor> get(std::int64_t i) const override { return inner_.get(i); }
  void prefetch_batch(const std::vector<std::int64_t>& ids) const override {
    std::lock_guard<std::mutex> lock(mu_);
    announced_.push_back({ids, std::this_thread::get_id()});
  }
  std::int64_t num_snapshots() const override { return inner_.num_snapshots(); }
  MemorySpaceId space() const override { return inner_.space(); }
  const data::StandardScaler& scaler() const override { return inner_.scaler(); }
  const data::SplitRanges& splits() const override { return inner_.splits(); }
  const data::DatasetSpec& spec() const override { return inner_.spec(); }

  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return announced_.size();
  }
  std::vector<Announcement> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(announced_, {});
  }

 private:
  data::IndexSource inner_;
  mutable std::mutex mu_;
  mutable std::vector<Announcement> announced_;
};

TEST(BatchPipeline, DeliversExactSequenceAtEveryDepth) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 7);
  data::IndexDataset ds(raw, spec);
  RecordingSource source(ds);
  data::LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, 0, 1, 5, 8};

  std::vector<std::vector<std::int64_t>> expected;
  data::DataLoader plain(source, opt, 0, 120);
  plain.start_epoch(3);
  data::Batch b;
  while (plain.next(b)) expected.push_back(b.indices);
  ASSERT_FALSE(expected.empty());
  source.take();

  // {lookahead, depth}.  Every case announces every batch once, in
  // delivery order, right before staging it: on the consumer at depth
  // 0, on one prefetch worker otherwise, which the budget gate keeps
  // at most `depth` batches ahead of consumption.
  const std::thread::id consumer = std::this_thread::get_id();
  std::vector<std::vector<std::int64_t>> announced_sync, announced_depth2;
  const std::vector<std::pair<int, int>> cases = {{0, 0}, {2, 0}, {1, 1}, {2, 2}, {4, 4}};
  for (const auto& [lookahead, depth] : cases) {
    data::LoaderOptions dopt = opt;
    dopt.prefetch_lookahead = lookahead;
    data::DataLoader inner(source, dopt, 0, 120);
    BatchPipeline pipe(inner, depth);
    pipe.start_epoch(3);
    std::size_t i = 0;
    while (pipe.next(b)) {
      ASSERT_LT(i, expected.size()) << "depth " << depth;
      EXPECT_EQ(b.indices, expected[i]) << "depth " << depth << " batch " << i;
      ++i;
      EXPECT_LE(source.count(), i + static_cast<std::size_t>(depth))
          << "lookahead " << lookahead << " depth " << depth << " after delivery " << i;
    }
    EXPECT_EQ(i, expected.size()) << "depth " << depth;
    const std::vector<RecordingSource::Announcement> records = source.take();
    ASSERT_FALSE(records.empty());
    std::vector<std::vector<std::int64_t>> announced;
    for (const RecordingSource::Announcement& a : records) {
      announced.push_back(a.ids);
      if (depth == 0) {
        EXPECT_EQ(a.thread, consumer) << "lookahead " << lookahead;
      } else {
        EXPECT_NE(a.thread, consumer) << "depth " << depth;
        EXPECT_EQ(a.thread, records.front().thread) << "depth " << depth;
      }
    }
    EXPECT_EQ(announced, expected) << "lookahead " << lookahead << " depth " << depth;
    if (depth == 0 && lookahead == 2) announced_sync = std::move(announced);
    if (depth == 2) announced_depth2 = std::move(announced);
  }
  ASSERT_FALSE(announced_depth2.empty());
  EXPECT_EQ(announced_sync, announced_depth2);
}

TEST(BatchPipeline, PerBatchHookFiresOncePerDeliveredBatch) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 7);
  data::IndexDataset ds(raw, spec);
  data::IndexSource source(ds);
  data::LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kNone, 0, 1, 1, 8};
  opt.prefetch_lookahead = 2;
  data::DataLoader inner(source, opt, 0, 64);
  int fired = 0;
  BatchPipeline pipe(inner, 2, [&] { ++fired; });
  pipe.start_epoch(0, /*max_batches=*/5);
  data::Batch b;
  int delivered = 0;
  while (delivered < 5 && pipe.next(b)) ++delivered;
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(fired, 5);
}

// ------------------------------------------------- Trainer depth sweep

TEST(EngineDepthSweep, IndexLossesBitIdenticalAcrossDepths) {
  TrainConfig cfg = engine_config(BatchingMode::kIndex);
  const TrainResult base = Trainer(cfg).run();
  for (int depth : {1, 2, 4}) {
    TrainConfig dcfg = cfg;
    dcfg.prefetch_depth = depth;
    const TrainResult r = Trainer(dcfg).run();
    expect_identical_curves(base, r, ("kIndex depth " + std::to_string(depth)).c_str());
  }
}

TEST(EngineDepthSweep, GpuIndexLossesBitIdenticalAcrossDepths) {
  TrainConfig cfg = engine_config(BatchingMode::kGpuIndex);
  const TrainResult base = Trainer(cfg).run();
  for (int depth : {1, 2, 4}) {
    TrainConfig dcfg = cfg;
    dcfg.prefetch_depth = depth;
    const TrainResult r = Trainer(dcfg).run();
    expect_identical_curves(base, r,
                            ("kGpuIndex depth " + std::to_string(depth)).c_str());
    // GPU-index assembly is device-local: the prefetch worker stages
    // into device-space slots and the per-batch PCIe ledger stays at
    // the single upfront parameter upload, fully exposed.
    EXPECT_EQ(r.transfers.h2d_count, base.transfers.h2d_count);
  }
}

TEST(EngineDepthSweep, PrefetchHidesPartOfTheModeledPcieLeg) {
  // Host-resident index data + device compute: every batch crosses
  // PCIe.  At depth 0 the whole modeled leg is exposed; with a
  // prefetch pipeline the worker uploads ahead of compute and only the
  // remainder stays on the critical path.
  TrainConfig cfg = engine_config(BatchingMode::kIndex);
  const TrainResult sync_r = Trainer(cfg).run();
  ASSERT_GT(sync_r.modeled_transfer_seconds, 0.0);
  EXPECT_DOUBLE_EQ(sync_r.exposed_transfer_seconds, sync_r.modeled_transfer_seconds);

  TrainConfig pf_cfg = cfg;
  pf_cfg.prefetch_depth = 2;
  const TrainResult pf_r = Trainer(pf_cfg).run();
  // The ledger itself is identical (same batches, same uploads)...
  EXPECT_EQ(pf_r.transfers.h2d_bytes, sync_r.transfers.h2d_bytes);
  EXPECT_NEAR(pf_r.modeled_transfer_seconds, sync_r.modeled_transfer_seconds, 1e-9);
  // ...but part of it hid behind compute.
  EXPECT_LT(pf_r.exposed_transfer_seconds, pf_r.modeled_transfer_seconds);
  EXPECT_GE(pf_r.exposed_transfer_seconds, 0.0);
}

TEST(EngineDepthSweep, StandardModeRunsThroughTheEngineAtDepth) {
  // The engine serves every BatchingMode, not just the index family.
  TrainConfig cfg = engine_config(BatchingMode::kStandard);
  const TrainResult base = Trainer(cfg).run();
  TrainConfig dcfg = cfg;
  dcfg.prefetch_depth = 2;
  const TrainResult r = Trainer(dcfg).run();
  expect_identical_curves(base, r, "kStandard depth 2");
}

// ------------------------------------------------- depth-N stress

TEST(DepthNPrefetchStress, AbortRestartStormKeepsSequencesExactAtDepth3) {
  // The depth-1 storm lives in dist_prefetch_test; this hammers the
  // ring generalization: repeated partial consumption + restarts with
  // three batches of producer lead.
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 9);
  data::IndexDataset ds(raw, spec);
  data::IndexSource source(ds);
  data::LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, 0, 1, 5, 8};

  std::vector<std::vector<std::vector<std::int64_t>>> expected(3);
  data::DataLoader plain(source, opt, 0, 200);
  for (int epoch = 0; epoch < 3; ++epoch) {
    plain.start_epoch(epoch);
    data::Batch b;
    while (plain.next(b)) expected[static_cast<std::size_t>(epoch)].push_back(b.indices);
  }

  data::DataLoader inner(source, opt, 0, 200);
  data::PrefetchLoader prefetch(inner, /*depth=*/3);
  ASSERT_EQ(prefetch.depth(), 3);
  data::Batch b;
  for (int iter = 0; iter < 60; ++iter) {
    const int epoch = iter % 3;
    prefetch.start_epoch(epoch);
    const int consume = iter % 7;  // 0..6 batches, then abandon mid-epoch
    for (int k = 0; k < consume; ++k) {
      ASSERT_TRUE(prefetch.next(b)) << "iter " << iter << " batch " << k;
      ASSERT_EQ(b.indices,
                expected[static_cast<std::size_t>(epoch)][static_cast<std::size_t>(k)])
          << "iter " << iter << " batch " << k;
    }
  }
  // After the storm a full epoch still delivers the exact sequence.
  prefetch.start_epoch(2);
  std::size_t i = 0;
  while (prefetch.next(b)) {
    ASSERT_LT(i, expected[2].size());
    EXPECT_EQ(b.indices, expected[2][i]);
    ++i;
  }
  EXPECT_EQ(i, expected[2].size());
}

}  // namespace
}  // namespace pgti::core
