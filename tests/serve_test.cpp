// The serving tier (DESIGN.md §17): micro-batch coalescing is
// bit-exact (a batch of N requests is byte-identical to N sequential
// single-request forwards, at every coalescing window and horizon),
// copy-on-publish snapshots isolate in-flight requests from a
// concurrently training model, the bounded queue sheds load and fails
// expired requests with typed errors without touching memory, stop()
// drains deterministically, serving batches replay alloc-free after
// the planning batch, and a DistStore reader rank's hot-window
// announcements keep the freshest snapshots cache-resident under
// pressure.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/epoch_engine.h"
#include "core/pgt_i.h"
#include "data/snapshot_provider.h"
#include "serve/engine.h"
#include "serve/request_queue.h"
#include "serve/snapshot.h"
#include "serve/types.h"

namespace pgti {
namespace {

using namespace std::chrono_literals;

constexpr std::int64_t kHidden = 8;
constexpr int kDiffusion = 1;
constexpr int kLayers = 1;
constexpr std::uint64_t kSeed = 13;

data::DatasetSpec serve_spec(std::int64_t horizon) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = horizon;
  return spec;
}

/// One self-contained serving fixture: a synthetic dataset behind a
/// local IndexProvider, a live (trainable) model, and a SnapshotSlot
/// built from the same recipe.
struct Rig {
  data::DatasetSpec spec;
  SensorNetwork net;
  Tensor raw;
  data::IndexDataset ds;
  data::IndexProvider provider;
  core::ModelBundle live;
  serve::SnapshotSlot slot;

  explicit Rig(std::int64_t horizon = 4)
      : spec(serve_spec(horizon)),
        net(data::network_for(spec)),
        raw(data::generate_signal(spec, net, 11)),
        ds(raw, spec),
        provider(ds),
        live(core::make_model(core::ModelKind::kPgtDcrnn, spec, net, kHidden,
                              kDiffusion, kLayers, kSeed)),
        slot(core::ModelKind::kPgtDcrnn, spec, net, kHidden, kDiffusion, kLayers,
             kSeed) {}

  std::int64_t head() const { return provider.num_snapshots() - 1; }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// The bit-parity reference: a batch-of-one forward against `snap`,
/// gathered exactly the way the engine gathers (same select/copy
/// composition), so any batched-vs-single divergence is the kernels'.
Tensor single_forward(const serve::ModelSnapshot& snap, const Rig& rig,
                      std::int64_t id, int horizon,
                      const std::vector<std::int64_t>& nodes) {
  const data::DatasetSpec& spec = rig.spec;
  Tensor x = Tensor::empty({1, spec.horizon, spec.nodes, spec.features}, kHostSpace);
  auto [window, y] = rig.ds.get(id);
  (void)y;
  x.select(0, 0).copy_from(window);
  const std::vector<Variable> outputs = snap.model().forward_seq(x);
  const std::int64_t n_out =
      nodes.empty() ? spec.nodes : static_cast<std::int64_t>(nodes.size());
  Tensor pred = Tensor::empty({horizon, n_out, snap.model().output_dim()}, kHostSpace);
  for (int s = 0; s < horizon; ++s) {
    const Tensor row = outputs[static_cast<std::size_t>(s)].value().select(0, 0);
    Tensor dst = pred.select(0, s);
    if (nodes.empty()) {
      dst.copy_from(row);
    } else {
      for (std::int64_t j = 0; j < n_out; ++j) {
        dst.select(0, j).copy_from(row.select(0, nodes[static_cast<std::size_t>(j)]));
      }
    }
  }
  return pred;
}

// ---------------------------------------------------------------- bit parity

TEST(ServeBitParity, CoalescedBatchMatchesSequentialForwards) {
  // Five concurrent requests — explicit head, head-resolved (-1), an
  // older window, a duplicate window with a node subset, a single-node
  // slice — coalesce into ONE fused forward; each forecast must be
  // byte-identical to its own batch-of-one forward.  Swept over the
  // horizon (= input window) and every coalescing window the issue
  // names, including 0 (batch only what is already queued).
  for (const std::int64_t horizon : {std::int64_t{1}, std::int64_t{3}, std::int64_t{12}}) {
    Rig rig(horizon);
    const auto snap = rig.slot.publish(*rig.live.model, /*epoch=*/0);
    const std::int64_t head = rig.head();
    struct Spec {
      std::int64_t snapshot;
      std::vector<std::int64_t> nodes;
    };
    const std::vector<Spec> reqs = {
        {head, {}},
        {-1, {}},  // resolves to head
        {head - 3, {}},
        {head, {0, 5, rig.spec.nodes - 1}},
        {head - 3, {2}},
    };
    for (const auto window : {0us, 1000us, 8000us}) {
      serve::EngineConfig cfg;
      cfg.coalesce_window = window;
      serve::InferenceEngine engine(rig.slot, rig.provider, /*rank=*/0, cfg);
      // Queue everything BEFORE the worker exists: coalescing is then
      // deterministic (one batch of 5) at every window, including 0.
      std::vector<std::future<serve::Forecast>> futs;
      for (const Spec& r : reqs) {
        serve::ForecastRequest req;
        req.snapshot = r.snapshot;
        req.horizon = static_cast<int>(horizon);
        req.nodes = r.nodes;
        futs.push_back(engine.submit(req));
      }
      engine.start();
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        serve::Forecast f = futs[i].get();
        EXPECT_EQ(f.coalesced_batch, static_cast<std::int64_t>(reqs.size()));
        EXPECT_EQ(f.snapshot_version, 1u);
        const std::int64_t id = reqs[i].snapshot < 0 ? head : reqs[i].snapshot;
        const Tensor ref = single_forward(*snap, rig, id,
                                          static_cast<int>(horizon), reqs[i].nodes);
        EXPECT_TRUE(same_bits(f.prediction, ref))
            << "horizon " << horizon << " window " << window.count()
            << "us request " << i;
      }
      engine.stop();
      const serve::ServeStats s = engine.stats();
      EXPECT_EQ(s.batches, 1u);
      EXPECT_EQ(s.completed, reqs.size());
      EXPECT_EQ(s.max_coalesced, reqs.size());
      EXPECT_EQ(s.coalesced_requests, reqs.size());
      EXPECT_EQ(s.failed, 0u);
    }
  }
}

TEST(ServeBitParity, ServingBatchesReplayAllocFreeAfterPlanning) {
  // The alloc-free steady state extends to serving: the first batch of
  // a shape plans the worker arena's pool demand, every later batch of
  // that shape replays without touching the heap (the forecast tensor
  // recycles once the caller drops it).
  Rig rig;
  rig.slot.publish(*rig.live.model, 0);
  serve::InferenceEngine engine(rig.slot, rig.provider, 0);
  engine.start();
  const auto serve_one = [&] {
    serve::ForecastRequest req;
    req.snapshot = rig.head();
    req.horizon = 4;
    serve::Forecast f = engine.submit(req).get();
    EXPECT_EQ(f.prediction.shape()[0], 4);
  };  // forecast dropped here -> its arena block recycles
  serve_one();  // planning batch
  serve_one();  // one full recycle pass
  const std::uint64_t h0 = MemoryTracker::instance().heap_allocs_total();
  for (int i = 0; i < 4; ++i) serve_one();
  EXPECT_EQ(MemoryTracker::instance().heap_allocs_total() - h0, 0u);
  EXPECT_GT(engine.arena_stats().pool_hits, 0u);
  engine.stop();
}

// --------------------------------------------------------- snapshot isolation

TEST(ServeSnapshot, PublishFromTrainingThreadIsolatesVersions) {
  // A trainer mutates the live model and publishes at every epoch end
  // (EpochEngine::Hooks::on_epoch_end) while the engine serves.  Every
  // forecast must be byte-identical to a single forward against the
  // exact snapshot version it claims — proof that a publish never
  // bleeds into an in-flight batch — versions must be non-decreasing
  // in completion order, and a request submitted after training
  // finishes must see the final version.
  Rig rig;
  const auto first = rig.slot.publish(*rig.live.model, 0);
  EXPECT_EQ(first->version(), 1u);

  std::mutex pub_mu;
  std::vector<std::shared_ptr<const serve::ModelSnapshot>> published = {first};

  serve::EngineConfig cfg;
  cfg.coalesce_window = 200us;
  serve::InferenceEngine engine(rig.slot, rig.provider, 0, cfg);
  engine.start();

  // Before training starts the only version is 1.
  {
    serve::ForecastRequest req;
    req.horizon = 2;
    EXPECT_EQ(engine.submit(req).get().snapshot_version, 1u);
  }

  constexpr int kEpochs = 3;
  std::thread trainer([&] {
    std::vector<Variable> params = rig.live.model->parameters();
    optim::Adam opt(params, optim::Adam::Options{});
    core::EpochEngine::Hooks hooks;
    hooks.on_epoch_end = [&](int epoch, std::int64_t) {
      auto snap = rig.slot.publish(*rig.live.model, epoch);
      std::lock_guard<std::mutex> lk(pub_mu);
      published.push_back(std::move(snap));
    };
    core::EpochEngine eng(*rig.live.model, opt, hooks);
    data::IndexSource source(rig.ds);
    const data::SplitRanges& splits = rig.ds.splits();
    data::LoaderOptions opt_l;
    opt_l.batch_size = 8;
    opt_l.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, 0, 1, kSeed, 8};
    data::DataLoader loader(source, opt_l, splits.train_begin, splits.train_end);
    core::BatchPipeline pipe(loader, /*prefetch_depth=*/0);
    for (int e = 0; e < kEpochs; ++e) eng.train_epoch(pipe, e, /*max_steps=*/4);
  });

  // Stream requests while epochs end underneath them.
  std::vector<serve::Forecast> served;
  for (int i = 0; i < 24; ++i) {
    serve::ForecastRequest req;
    req.snapshot = rig.head() - (i % 3);
    req.horizon = 2;
    served.push_back(engine.submit(req).get());
    std::this_thread::sleep_for(1ms);
  }
  trainer.join();

  // One more after training: must see the final published version.
  {
    serve::ForecastRequest req;
    req.horizon = 2;
    served.push_back(engine.submit(req).get());
  }
  engine.stop();

  ASSERT_EQ(published.size(), static_cast<std::size_t>(1 + kEpochs));
  EXPECT_EQ(rig.slot.version(), static_cast<std::uint64_t>(1 + kEpochs));
  EXPECT_EQ(served.back().snapshot_version, static_cast<std::uint64_t>(1 + kEpochs));

  std::uint64_t prev = 0;
  int idx = 0;
  for (const serve::Forecast& f : served) {
    EXPECT_GE(f.snapshot_version, prev);  // staleness is bounded and monotone
    prev = f.snapshot_version;
    ASSERT_GE(f.snapshot_version, 1u);
    ASSERT_LE(f.snapshot_version, published.size());
    const auto& snap = published[static_cast<std::size_t>(f.snapshot_version - 1)];
    ASSERT_EQ(snap->version(), f.snapshot_version);
    // Reconstruct the request this forecast answered.
    const std::int64_t id = idx < 24 ? rig.head() - (idx % 3) : rig.head();
    const Tensor ref = single_forward(*snap, rig, id, 2, {});
    EXPECT_TRUE(same_bits(f.prediction, ref)) << "forecast " << idx << " vs version "
                                              << f.snapshot_version;
    ++idx;
  }
  // Training really moved the weights: version 1 and the final version
  // disagree on the same input, so matching "its own" version is a
  // real isolation property, not a vacuous one.
  EXPECT_FALSE(same_bits(single_forward(*published.front(), rig, rig.head(), 2, {}),
                         single_forward(*published.back(), rig, rig.head(), 2, {})));
}

// ------------------------------------------------------------ queue semantics

TEST(ServeQueue, BackpressureRejectsBeyondCapacity) {
  Rig rig;
  rig.slot.publish(*rig.live.model, 0);
  serve::EngineConfig cfg;
  cfg.queue_capacity = 4;
  serve::InferenceEngine engine(rig.slot, rig.provider, 0, cfg);
  // No worker: the queue really fills.
  std::vector<std::future<serve::Forecast>> futs;
  serve::ForecastRequest req;
  req.horizon = 2;
  for (int i = 0; i < 4; ++i) futs.push_back(engine.submit(req));
  EXPECT_THROW(engine.submit(req), serve::QueueFullError);
  const serve::ServeStats mid = engine.stats();
  EXPECT_EQ(mid.submitted, 4u);
  EXPECT_EQ(mid.rejected, 1u);
  // stop() without start() drains inline: all four accepted requests
  // still complete.
  engine.stop();
  for (auto& f : futs) EXPECT_EQ(f.get().coalesced_batch, 4);
  EXPECT_EQ(engine.stats().completed, 4u);
}

TEST(ServeQueue, ExpiredDeadlineFailsTypedAndTouchesNoMemory) {
  Rig rig;
  rig.slot.publish(*rig.live.model, 0);
  serve::InferenceEngine engine(rig.slot, rig.provider, 0);
  serve::ForecastRequest req;
  req.horizon = 2;
  req.deadline = std::chrono::steady_clock::now() - 1ms;
  std::vector<std::future<serve::Forecast>> futs;
  futs.push_back(engine.submit(req));
  futs.push_back(engine.submit(req));
  // The deadline path must allocate nothing: no forward, no forecast
  // tensor, no arena block — the typed error is the whole response.
  const std::uint64_t h0 = MemoryTracker::instance().heap_allocs_total();
  const std::size_t b0 = MemoryTracker::instance().current(kHostSpace);
  engine.stop();  // inline drain
  EXPECT_EQ(MemoryTracker::instance().heap_allocs_total() - h0, 0u);
  EXPECT_EQ(MemoryTracker::instance().current(kHostSpace), b0);
  for (auto& f : futs) EXPECT_THROW(f.get(), serve::DeadlineExceededError);
  const serve::ServeStats s = engine.stats();
  EXPECT_EQ(s.timed_out, 2u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.batches, 0u);
}

TEST(ServeQueue, StopDrainsEveryQueuedFutureDeterministically) {
  Rig rig;
  rig.slot.publish(*rig.live.model, 0);
  serve::InferenceEngine engine(rig.slot, rig.provider, 0);
  engine.start();
  std::vector<std::future<serve::Forecast>> futs;
  for (int i = 0; i < 12; ++i) {
    serve::ForecastRequest req;
    req.horizon = 1 + (i % 2);  // two horizon classes -> several batches
    futs.push_back(engine.submit(req));
  }
  engine.stop();
  // When stop() returns, every accepted future is ready — served, not
  // abandoned.
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_GT(f.get().prediction.numel(), 0);
  }
  EXPECT_EQ(engine.stats().completed, 12u);
  // Closed for business afterwards, idempotently.
  serve::ForecastRequest late;
  late.horizon = 1;
  EXPECT_THROW(engine.submit(late), serve::EngineStoppedError);
  EXPECT_THROW(engine.start(), serve::EngineStoppedError);
  engine.stop();  // no-op
}

TEST(ServeQueue, FailureModesAreTypedPerRequest) {
  Rig rig;
  {
    // Before any publish: SnapshotUnavailableError, request-scoped.
    serve::InferenceEngine engine(rig.slot, rig.provider, 0);
    serve::ForecastRequest req;
    req.horizon = 2;
    auto fut = engine.submit(req);
    engine.stop();
    EXPECT_THROW(fut.get(), serve::SnapshotUnavailableError);
    EXPECT_EQ(engine.stats().failed, 1u);
  }
  rig.slot.publish(*rig.live.model, 0);
  {
    serve::InferenceEngine engine(rig.slot, rig.provider, 0);
    EXPECT_THROW(
        {
          serve::ForecastRequest bad;
          bad.horizon = 0;
          engine.submit(bad);
        },
        std::invalid_argument);
    serve::ForecastRequest bad_id;
    bad_id.horizon = 2;
    bad_id.snapshot = rig.provider.num_snapshots();  // one past the end
    auto f_id = engine.submit(bad_id);
    serve::ForecastRequest bad_node;
    bad_node.horizon = 2;
    bad_node.nodes = {rig.spec.nodes};  // one past the end
    auto f_node = engine.submit(bad_node);
    serve::ForecastRequest bad_h;
    bad_h.horizon = static_cast<int>(rig.spec.horizon) + 1;  // > output steps
    auto f_h = engine.submit(bad_h);
    serve::ForecastRequest good;
    good.horizon = 2;
    auto f_good = engine.submit(good);
    engine.stop();
    EXPECT_THROW(f_id.get(), serve::ServeError);
    EXPECT_THROW(f_node.get(), serve::ServeError);
    EXPECT_THROW(f_h.get(), serve::ServeError);
    // A bad neighbor never takes the batch down.
    EXPECT_EQ(f_good.get().snapshot_version, 1u);
  }
}

// ----------------------------------------------------- hot-window store cache

TEST(ServeHotWindow, ReaderRankKeepsHotWindowResidentUnderPressure) {
  // Serving traffic runs through a read-only DistStore reader rank:
  // the reader owns no partition (training shards are untouched), and
  // the engine's hot window is the reader's retained range, which its
  // cache evicts last, so the freshest windows survive cache pressure
  // from stale-window requests.
  Rig rig;
  rig.slot.publish(*rig.live.model, 0);
  const auto serve_ids = [&](serve::InferenceEngine& engine,
                             std::int64_t first, std::int64_t count,
                             std::int64_t step) {
    for (std::int64_t i = 0; i < count; ++i) {
      serve::ForecastRequest req;
      req.snapshot = first + step * i;
      req.horizon = 2;
      (void)engine.submit(req).get();
    }
  };

  // Hot-window engine: window of 8 against a 10-snapshot cache (the
  // window plus slack for in-flight stale fetches).
  std::uint64_t hot_recopy = 0;
  {
    data::StandardDataset dsa(rig.raw, rig.spec);
    dist::DistStore store(std::move(dsa), /*world=*/2, dist::NetworkModel{},
                          /*cache_snapshots=*/10);
    const int reader = store.add_reader();
    EXPECT_EQ(reader, 2);
    const auto [lo, hi] = store.partition(reader);
    EXPECT_EQ(lo, hi);  // readers own nothing
    serve::EngineConfig cfg;
    cfg.hot_window = 8;
    serve::InferenceEngine engine(rig.slot, store, reader, cfg);
    engine.start();
    const std::int64_t head = store.num_snapshots() - 1;
    serve_ids(engine, head - 7, 8, 1);  // warm the hot window
    const std::uint64_t warm = store.stats().bytes_copied;
    serve_ids(engine, head - 40, 6, -1);  // stale-window pressure
    const std::uint64_t pressured = store.stats().bytes_copied;
    EXPECT_GT(pressured, warm);  // the stale fetches really copied
    serve_ids(engine, head - 7, 8, 1);  // re-serve the hot window
    hot_recopy = store.stats().bytes_copied - pressured;
    EXPECT_EQ(hot_recopy, 0u);  // every hot window was still resident
    EXPECT_GE(store.stats().cache_hits, 8u);
    engine.stop();
  }

  // Control: the identical traffic with hot_window = 0 loses the
  // retention priority, so pressure evicts the fresh windows and the
  // re-serve copies again — proving the zero above is the retained
  // range and not cache capacity.
  {
    data::StandardDataset dsb(rig.raw, rig.spec);
    dist::DistStore store(std::move(dsb), /*world=*/2, dist::NetworkModel{},
                          /*cache_snapshots=*/10);
    const int reader = store.add_reader();
    serve::EngineConfig cfg;
    cfg.hot_window = 0;
    serve::InferenceEngine engine(rig.slot, store, reader, cfg);
    engine.start();
    const std::int64_t head = store.num_snapshots() - 1;
    serve_ids(engine, head - 7, 8, 1);
    serve_ids(engine, head - 40, 6, -1);
    const std::uint64_t pressured = store.stats().bytes_copied;
    serve_ids(engine, head - 7, 8, 1);
    EXPECT_GT(store.stats().bytes_copied - pressured, 0u);
    engine.stop();
  }
}

TEST(ServeHotWindow, ReaderClosesTheSplitAndExposesItsFetches) {
  // The engine's per-batch delivery notice classifies every request
  // its reader rank announced.  The engine announces and fetches each
  // batch itself, so nothing hides its fetches: they are exposed in
  // full.
  Rig rig;
  rig.slot.publish(*rig.live.model, 0);
  data::StandardDataset ds(rig.raw, rig.spec);
  dist::DistStore store(std::move(ds), /*world=*/2, dist::NetworkModel{},
                        /*cache_snapshots=*/10);
  const int reader = store.add_reader();
  serve::EngineConfig cfg;
  cfg.hot_window = 8;
  serve::InferenceEngine engine(rig.slot, store, reader, cfg);
  engine.start();
  const std::int64_t head = store.num_snapshots() - 1;
  for (std::int64_t i = 0; i < 12; ++i) {
    serve::ForecastRequest req;
    req.snapshot = head - (i * 5) % 40;
    req.horizon = 2;
    (void)engine.submit(req).get();
  }
  engine.stop();
  const dist::StoreStats s = store.stats();
  EXPECT_GT(s.modeled_seconds, 0.0);
  EXPECT_EQ(s.remote_bytes, s.bytes_copied + s.cache_hit_bytes);
  EXPECT_NEAR(s.overlapped_seconds + s.exposed_seconds, s.modeled_seconds, 1e-9)
      << "every announced request was delivered and classified";
  EXPECT_DOUBLE_EQ(s.exposed_seconds, s.modeled_seconds) << "an engine's own fetches hide nothing";
}

}  // namespace
}  // namespace pgti
