// The prefetch/caching data path, end to end:
//
//  * dist::SnapshotCache driven directly, with small tensors and no
//    dataset or store: pins outlive a zero bound, the eviction tiers
//    (residue, then scheduled, then retained), the byte bound, an id
//    scheduled twice, a failed copy, and releasing every pin;
//  * regression: a zero/tiny-capacity cache must never double-price an
//    announced consolidated fetch (announced snapshots are pinned
//    until consumed);
//  * the bytes-bounded LRU mode;
//  * worker-announced staging: a batch announced and fetched on a
//    prefetch worker moves bit-exact data with the ledger of a
//    consumer-announced one, and the overlapped/exposed split of
//    modeled fetch time is classified at delivery;
//  * reader ranks added after construction run the same request
//    lifecycle as workers, concurrently with them (a TSan target);
//  * the store's counters repeat exactly across runs of one job;
//  * PrefetchLoader abort/restart stress (a TSan target — this suite
//    runs under PGTI_SANITIZE=thread via scripts/check.sh);
//  * DistTrainer with prefetch on vs off: bit-identical losses,
//    strictly lower exposed fetch time, ledger invariant intact;
//  * the depth-N generalization: losses bit-identical across
//    prefetch_depth in {0, 1, 2, 4} for all four strategies, the
//    priced ledger independent of depth, truncated-epoch
//    reconciliation at depth > 1, and the schedule-aware eviction
//    policy (a snapshot scheduled for a nearer-future batch outlives
//    already-consumed residue);
//  * DistResult::modeled_allreduce_seconds counts collectives only:
//    equal bit for bit with and without a store, at depths 0 and 2.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dist_trainer.h"
#include "data/prefetch.h"
#include "data/snapshot_provider.h"
#include "data/synthetic.h"
#include "dist/dist_store.h"
#include "dist/snapshot_cache.h"
#include "tensor/tensor_ops.h"

namespace pgti {
namespace {

data::StandardDataset tiny_dataset() {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, /*seed=*/21);
  return data::StandardDataset(raw, spec);
}

// ------------------------------------ SnapshotCache, driven directly

/// Snapshot `id` as two 2-float tensors holding +id and -id.
std::pair<Tensor, Tensor> tiny_snapshot(std::int64_t id) {
  const float v = static_cast<float>(id);
  return {Tensor::full({2}, v), Tensor::full({2}, -v)};
}

std::int64_t tiny_bytes() {
  const auto [x, y] = tiny_snapshot(0);
  return x.storage_bytes() + y.storage_bytes();
}

/// Stages `ids` as one batch, then consumes them in order.
void stage_and_consume(dist::SnapshotCache& cache, const std::vector<std::int64_t>& ids) {
  cache.stage(ids, tiny_snapshot);
  for (std::int64_t id : ids) cache.consume(id);
}

TEST(SnapshotCache, ZeroCapacityKeepsPinnedEntriesUntilConsumed) {
  dist::SnapshotCache cache(/*max_snapshots=*/0, /*max_bytes=*/0, tiny_bytes());
  const dist::SnapshotCache::Staged staged = cache.stage({3, 5, 7}, tiny_snapshot);
  EXPECT_EQ(staged.hits, 0u);
  EXPECT_EQ(staged.bytes_copied, 3u * static_cast<std::uint64_t>(tiny_bytes()));
  EXPECT_EQ(cache.size(), 3) << "pinned entries outlive a zero bound";
  EXPECT_EQ(cache.evictions(), 0u);
  // An id is pinned at most once; a refused stage changes nothing.
  EXPECT_THROW(cache.stage({5}, tiny_snapshot), std::logic_error);
  EXPECT_THROW(cache.stage({9, 9}, tiny_snapshot), std::logic_error);
  EXPECT_EQ(cache.size(), 3);
  EXPECT_FALSE(cache.contains(9));
  for (std::int64_t id : {3, 5, 7}) {
    EXPECT_TRUE(cache.pinned(id));
    const auto [x, y] = cache.consume(id);
    EXPECT_FALSE(cache.contains(id)) << "evicted as soon as it is consumed";
    EXPECT_EQ(x.at({0}), static_cast<float>(id)) << "the handles outlive the entry";
    EXPECT_EQ(y.at({1}), -static_cast<float>(id));
  }
  EXPECT_EQ(cache.evictions(), 3u);
  EXPECT_THROW(cache.consume(3), std::out_of_range);
}

TEST(SnapshotCache, EvictsResidueThenScheduledThenRetained) {
  // Five unpinned entries, filled in the reverse of the expected
  // eviction order, so plain LRU would pick every victim wrongly.
  dist::SnapshotCache cache(/*max_snapshots=*/5, /*max_bytes=*/0, tiny_bytes());
  stage_and_consume(cache, {11, 10, 21, 20, 30});
  cache.schedule({21, 20});  // 21 is needed next, 20 after it
  cache.retain(10, 12);
  // Each one-snapshot stage stays pinned and needs one slot.
  cache.stage({40}, tiny_snapshot);
  EXPECT_FALSE(cache.contains(30)) << "residue first, though most recently used";
  EXPECT_TRUE(cache.contains(20));
  cache.stage({41}, tiny_snapshot);
  EXPECT_FALSE(cache.contains(20)) << "then the farthest scheduled use";
  EXPECT_TRUE(cache.contains(21));
  cache.stage({42}, tiny_snapshot);
  EXPECT_FALSE(cache.contains(21));
  EXPECT_TRUE(cache.contains(10));
  cache.stage({43}, tiny_snapshot);
  EXPECT_FALSE(cache.contains(10)) << "retained entries last, lowest id first";
  EXPECT_TRUE(cache.contains(11));
  EXPECT_EQ(cache.evictions(), 4u);
  EXPECT_EQ(cache.size(), 5);
}

TEST(SnapshotCache, ByteBoundEvictsByBytes) {
  // The count bound is slack; a budget of two snapshots' bytes is not.
  dist::SnapshotCache cache(/*max_snapshots=*/100, /*max_bytes=*/2 * tiny_bytes(),
                            tiny_bytes());
  stage_and_consume(cache, {1, 2});
  EXPECT_EQ(cache.evictions(), 0u);
  stage_and_consume(cache, {3});  // makes room for one: the LRU entry goes
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  // A pinned batch may exceed the budget; consuming it trims back.
  cache.stage({4, 5, 6}, tiny_snapshot);
  EXPECT_EQ(cache.size(), 3);
  for (std::int64_t id : {4, 5, 6}) cache.consume(id);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_TRUE(cache.contains(5));
  EXPECT_TRUE(cache.contains(6));
}

TEST(SnapshotCache, IdScheduledTwiceKeepsItsLaterPosition) {
  // [1, 2, 3 | 1]: this epoch's order followed by the next epoch's
  // head.  Consuming 1 passes its first position only, so when 3 needs
  // a slot, 1 still has a future use and 2 is residue.  Scheduled once,
  // 1 is residue too, and LRU takes it.
  for (const bool twice : {true, false}) {
    dist::SnapshotCache cache(/*max_snapshots=*/2, /*max_bytes=*/0, tiny_bytes());
    cache.schedule(twice ? std::vector<std::int64_t>{1, 2, 3, 1}
                         : std::vector<std::int64_t>{1, 2, 3});
    stage_and_consume(cache, {1});
    stage_and_consume(cache, {2});
    cache.stage({3}, tiny_snapshot);
    EXPECT_EQ(cache.evictions(), 1u) << "twice " << twice;
    EXPECT_EQ(cache.contains(1), twice);
    EXPECT_EQ(cache.contains(2), !twice);
  }
}

TEST(SnapshotCache, FailedCopyDropsTheNewPinsAndInsertsNothing) {
  dist::SnapshotCache cache(/*max_snapshots=*/4, /*max_bytes=*/0, tiny_bytes());
  stage_and_consume(cache, {1});
  const auto failing = [](std::int64_t) -> std::pair<Tensor, Tensor> {
    throw std::bad_alloc();
  };
  EXPECT_THROW(cache.stage({1, 2}, failing), std::bad_alloc);
  EXPECT_FALSE(cache.pinned(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.stage({1, 2}, tiny_snapshot).hits, 1u) << "both may be staged again";
}

TEST(SnapshotCache, ReleasingEveryPinEnforcesTheBounds) {
  dist::SnapshotCache cache(/*max_snapshots=*/1, /*max_bytes=*/0, tiny_bytes());
  cache.stage({1, 2, 3}, tiny_snapshot);  // announced, never consumed
  EXPECT_EQ(cache.size(), 3);
  cache.release_all();
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 1);
  EXPECT_TRUE(cache.contains(3)) << "the most recently staged entry stays";
  EXPECT_FALSE(cache.pinned(3));
  EXPECT_EQ(cache.stage({3}, tiny_snapshot).hits, 1u) << "unpinned, so it stages again";
}

// --------------------------------------------- pinning / tiny caches

TEST(StoreCache, ZeroCapacityCacheDoesNotDoublePriceAnnouncedBatch) {
  // Regression: with cache_snapshots_per_rank = 0 the just-staged
  // snapshot used to be evicted inside the staging pass, so the
  // subsequent fetch() missed and was re-priced as its own
  // single-snapshot request — double-counting remote traffic versus
  // the consolidated model.
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 4, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/0);
  const auto [lo1, hi1] = store.partition(1);
  ASSERT_GE(hi1 - lo1, 3);
  const std::vector<std::int64_t> batch{lo1, lo1 + 1, lo1 + 2};
  const std::uint64_t sb = static_cast<std::uint64_t>(store.snapshot_bytes());

  for (int epoch = 0; epoch < 2; ++epoch) {
    store.prefetch_batch(0, batch);
    for (std::int64_t id : batch) {
      const auto [x, y] = store.fetch(0, id);
      const auto [ox, oy] = store.fetch(1, id);
      EXPECT_EQ(ops::max_abs_diff(x, ox.contiguous()), 0.0f);
      EXPECT_EQ(ops::max_abs_diff(y, oy.contiguous()), 0.0f);
    }
    const dist::StoreStats st = store.stats();
    const std::uint64_t e = static_cast<std::uint64_t>(epoch + 1);
    EXPECT_EQ(st.remote_snapshots, 3u * e) << "every remote access priced ONCE";
    EXPECT_EQ(st.request_messages, 1u * e) << "one consolidated request per batch";
    EXPECT_EQ(st.remote_bytes, 3u * sb * e);
    // Nothing survives a zero-capacity cache between epochs: every
    // epoch re-copies, and the ledger still decomposes exactly.
    EXPECT_EQ(st.bytes_copied, 3u * sb * e);
    EXPECT_EQ(st.cache_hits, 0u);
    EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
  }
  // Consumed snapshots were dropped immediately (capacity 0).
  EXPECT_EQ(store.stats().cache_evictions, 6u);
}

TEST(StoreCache, AnnouncedSnapshotsArePinnedUntilConsumed) {
  // Capacity 1, batch of 3: all three staged snapshots must coexist
  // (pinned) until fetch() consumes them, then capacity bites.
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 4, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/1);
  const auto [lo1, hi1] = store.partition(1);
  ASSERT_GE(hi1 - lo1, 3);
  const std::vector<std::int64_t> batch{lo1, lo1 + 1, lo1 + 2};
  const std::uint64_t sb = static_cast<std::uint64_t>(store.snapshot_bytes());

  store.prefetch_batch(0, batch);
  for (std::int64_t id : batch) {
    const auto [x, y] = store.fetch(0, id);
    EXPECT_GT(x.numel(), 0);
    EXPECT_GT(y.numel(), 0);
  }
  const dist::StoreStats st = store.stats();
  EXPECT_EQ(st.remote_snapshots, 3u);
  EXPECT_EQ(st.request_messages, 1u);
  EXPECT_EQ(st.bytes_copied, 3u * sb) << "no announced snapshot was re-fetched";
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
}

TEST(StoreCache, BytesBoundedModeEvictsByBytes) {
  data::StandardDataset ds = tiny_dataset();
  const std::int64_t sb = 2 * ds.spec().horizon * ds.spec().nodes *
                          ds.spec().features *
                          static_cast<std::int64_t>(sizeof(float));
  // Count bound slack (the whole store), byte budget of two snapshots:
  // the byte bound is what evicts.
  dist::DistStore store(ds, 4, dist::NetworkModel{},
                        /*cache_snapshots_per_rank=*/ds.num_snapshots(),
                        /*cache_bytes_per_rank=*/2 * sb);
  ASSERT_EQ(store.snapshot_bytes(), sb);
  const auto [lo1, hi1] = store.partition(1);
  ASSERT_GE(hi1 - lo1, 3);
  const auto touch = [&](std::int64_t id) {
    store.prefetch_batch(0, {id});
    store.fetch(0, id);
  };
  touch(lo1);      // bytes: 1*sb
  touch(lo1 + 1);  // bytes: 2*sb
  touch(lo1 + 2);  // bytes would be 3*sb -> evicts lo1
  EXPECT_EQ(store.stats().cache_evictions, 1u);
  touch(lo1 + 1);  // still resident -> hit
  EXPECT_EQ(store.stats().cache_hits, 1u);
  touch(lo1);      // evicted -> copied again
  const dist::StoreStats st = store.stats();
  EXPECT_EQ(st.cache_evictions, 2u);
  EXPECT_EQ(st.bytes_copied, 4u * static_cast<std::uint64_t>(sb));
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
}

// --------------------------------------------- worker-announced staging

TEST(AsyncPrefetch, StagesAnnouncedBatchBitExactly) {
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 4, dist::NetworkModel{});
  const auto [lo1, hi1] = store.partition(1);
  const std::vector<std::int64_t> batch{lo1, lo1 + 1, hi1 - 1};
  const std::uint64_t sb = static_cast<std::uint64_t>(store.snapshot_bytes());

  // A prefetch worker announces (and so stages) the batch and fetches
  // it; the consumer computes on earlier batches for a real window
  // before this one is delivered.
  std::vector<std::pair<Tensor, Tensor>> fetched;
  std::thread worker([&] {
    store.prefetch_batch(0, batch);
    for (std::int64_t id : batch) fetched.push_back(store.fetch(0, id));
  });
  worker.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store.notify_batch_delivered(0);  // the batch reached its consumer
  ASSERT_EQ(fetched.size(), batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const auto& [x, y] = fetched[j];
    const auto [ox, oy] = store.fetch(1, batch[j]);
    EXPECT_FALSE(x.shares_storage_with(ox));
    EXPECT_EQ(ops::max_abs_diff(x, ox.contiguous()), 0.0f);
    EXPECT_EQ(ops::max_abs_diff(y, oy.contiguous()), 0.0f);
  }

  const dist::StoreStats st = store.stats();
  EXPECT_EQ(st.remote_snapshots, 3u);
  EXPECT_EQ(st.request_messages, 1u);
  EXPECT_EQ(st.remote_bytes, 3u * sb);
  EXPECT_EQ(st.bytes_copied, 3u * sb);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
  EXPECT_GT(st.modeled_seconds, 0.0);
  // The ~20ms window was hidden; the rest stays exposed.
  EXPECT_GT(st.overlapped_seconds, 0.015);
  EXPECT_LT(st.exposed_seconds, st.modeled_seconds);
  EXPECT_NEAR(st.overlapped_seconds + st.exposed_seconds, st.modeled_seconds, 1e-9);
  // drain hands back only the exposed share, once.
  const double drained = store.drain_modeled_seconds(0);
  EXPECT_NEAR(drained, st.exposed_seconds, 1e-9);
  EXPECT_EQ(store.drain_modeled_seconds(0), 0.0);
}

TEST(AsyncPrefetch, LedgerIdenticalToSynchronousPath) {
  // The same batches, announced and fetched by the consumer itself
  // (a depth-0 pipeline) or by a prefetch worker, then delivered on
  // the consumer.
  data::StandardDataset ds_consumer = tiny_dataset();
  data::StandardDataset ds_worker = tiny_dataset();
  dist::DistStore consumer_store(ds_consumer, 4, dist::NetworkModel{});
  dist::DistStore worker_store(ds_worker, 4, dist::NetworkModel{});
  const auto [lo1, hi1] = consumer_store.partition(1);
  const auto [lo2, hi2] = consumer_store.partition(2);
  (void)hi1;
  (void)hi2;
  const std::vector<std::vector<std::int64_t>> batches{
      {lo1, lo1 + 1, lo2},          // two owners -> two messages
      {lo1, lo2 + 1, lo2 + 2},      // lo1 cached -> hit
  };
  const auto stage = [](dist::DistStore& store, const std::vector<std::int64_t>& batch) {
    store.prefetch_batch(0, batch);
    for (std::int64_t id : batch) store.fetch(0, id);
  };
  for (const auto& batch : batches) {
    stage(consumer_store, batch);
    consumer_store.notify_batch_delivered(0);
    std::thread worker(stage, std::ref(worker_store), std::cref(batch));
    worker.join();
    worker_store.notify_batch_delivered(0);
  }
  const dist::StoreStats a = consumer_store.stats();
  const dist::StoreStats b = worker_store.stats();
  EXPECT_EQ(a.local_snapshots, b.local_snapshots);
  EXPECT_EQ(a.remote_snapshots, b.remote_snapshots);
  EXPECT_EQ(a.remote_bytes, b.remote_bytes);
  EXPECT_EQ(a.request_messages, b.request_messages);
  EXPECT_EQ(a.bytes_copied, b.bytes_copied);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_hit_bytes, b.cache_hit_bytes);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, b.modeled_seconds);
  // The consumer-announced store exposes everything; the
  // worker-announced one, delivered batch by batch, closes the same
  // split and never exposes more.
  EXPECT_DOUBLE_EQ(a.exposed_seconds, a.modeled_seconds);
  EXPECT_DOUBLE_EQ(a.overlapped_seconds, 0.0);
  EXPECT_GT(b.exposed_seconds, 0.0);
  EXPECT_LE(b.exposed_seconds, a.exposed_seconds);
  EXPECT_NEAR(b.overlapped_seconds + b.exposed_seconds, b.modeled_seconds, 1e-9);
}

TEST(AsyncPrefetch, AbandonReleasesOrphanedAnnouncements) {
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 4, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/0);
  const auto [lo1, hi1] = store.partition(1);
  (void)hi1;
  const std::uint64_t sb = static_cast<std::uint64_t>(store.snapshot_bytes());

  store.prefetch_batch(0, {lo1, lo1 + 1});  // announced, never consumed
  store.abandon_prefetches(0);              // epoch truncated

  dist::StoreStats st = store.stats();
  EXPECT_EQ(st.remote_snapshots, 2u);
  EXPECT_EQ(st.remote_bytes, 2u * sb);
  // Orphans still moved their bytes (the ledger stays backed by real
  // movement) but were never waited on: fully overlapped, and — with a
  // zero-capacity cache — dropped as soon as their pins released.
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
  EXPECT_DOUBLE_EQ(st.exposed_seconds, 0.0);
  EXPECT_NEAR(st.overlapped_seconds, st.modeled_seconds, 1e-9);
  EXPECT_EQ(st.cache_evictions, 2u);
  EXPECT_EQ(store.drain_modeled_seconds(0), 0.0);

  // A later fetch of an abandoned id is a fresh unannounced request.
  store.fetch(0, lo1);
  st = store.stats();
  EXPECT_EQ(st.remote_snapshots, 3u);
  EXPECT_EQ(st.request_messages, 2u);
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
  EXPECT_GT(store.drain_modeled_seconds(0), 0.0);
}

TEST(AsyncPrefetch, ClassifiedAtDeliveryNotAtFetch) {
  // A prefetch worker announces and fetches a batch ahead of the
  // consumer's compute, so the overlap window closes when the batch is
  // delivered, not when the worker fetched it.
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 4, dist::NetworkModel{});
  const auto [lo1, hi1] = store.partition(1);
  const std::vector<std::int64_t> batch{lo1, lo1 + 1, hi1 - 1};

  std::thread worker([&] {
    store.prefetch_batch(0, batch);
    for (std::int64_t id : batch) store.fetch(0, id);
  });
  worker.join();
  dist::StoreStats st = store.stats();
  EXPECT_GT(st.modeled_seconds, 0.0);
  EXPECT_EQ(st.overlapped_seconds + st.exposed_seconds, 0.0)
      << "fetched but not yet delivered: still unclassified";
  EXPECT_EQ(store.drain_modeled_seconds(0), 0.0);

  // The consumer computes on earlier batches before this one arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store.notify_batch_delivered(0);
  st = store.stats();
  EXPECT_GT(st.overlapped_seconds, 0.015);
  EXPECT_NEAR(st.overlapped_seconds + st.exposed_seconds, st.modeled_seconds, 1e-9);
  EXPECT_NEAR(store.drain_modeled_seconds(0), st.exposed_seconds, 1e-9);

  store.notify_batch_delivered(0);  // nothing left to classify: a no-op
  EXPECT_EQ(store.stats().overlapped_seconds, st.overlapped_seconds);
}

TEST(AsyncPrefetch, ConsumerThatFetchesItselfHidesNothingByWaiting) {
  // The serving engine's pattern: one thread announces, fetches at
  // once, and delivers.  It waited for its own copies, and its time
  // before the delivery (here stretched to 20 ms) hid nothing, so the
  // request stays exposed in full.
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 4, dist::NetworkModel{});
  const auto [lo1, hi1] = store.partition(1);
  const std::vector<std::int64_t> batch{lo1, lo1 + 1, hi1 - 1};

  store.prefetch_batch(0, batch);
  for (std::int64_t id : batch) store.fetch(0, id);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store.notify_batch_delivered(0);
  const dist::StoreStats st = store.stats();
  EXPECT_GT(st.modeled_seconds, 0.015);
  EXPECT_EQ(st.overlapped_seconds, 0.0) << "a consumer's own announcement hides nothing";
  EXPECT_EQ(st.exposed_seconds, st.modeled_seconds);
  EXPECT_NEAR(store.drain_modeled_seconds(0), st.exposed_seconds, 1e-9);
}

// ------------------------------------------------------ reader ranks

TEST(ReaderRanks, AsyncReadersAreOrdinaryRanksUnderConcurrentTraffic) {
  // Readers join after construction.  Each then runs the same request
  // lifecycle as a worker, on its own thread, concurrently with worker
  // traffic on the other ranks (a TSan target: this suite runs under
  // PGTI_SANITIZE=thread).
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 2, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/4);
  const int reader_a = store.add_reader();
  const int reader_b = store.add_reader();
  EXPECT_EQ(reader_a, 2);
  EXPECT_EQ(reader_b, 3);
  const auto [rlo, rhi] = store.partition(reader_a);
  EXPECT_EQ(rlo, rhi) << "readers own nothing";

  const auto [lo0, hi0] = store.partition(0);
  const auto [lo1, hi1] = store.partition(1);
  ASSERT_GE(hi0 - lo0, 6);
  ASSERT_GE(hi1 - lo1, 6);
  // Every batch is remote for the rank that announces it.
  const std::vector<std::vector<std::int64_t>> from0{{lo0, lo0 + 1, lo0 + 2},
                                                     {lo0 + 3, lo0 + 4, lo0 + 5}};
  const std::vector<std::vector<std::int64_t>> from1{{lo1, lo1 + 1, lo1 + 2},
                                                     {lo1 + 3, lo1 + 4, lo1 + 5}};
  const std::vector<std::vector<std::int64_t>> mixed{{lo0, lo1, lo0 + 4},
                                                     {lo1 + 2, lo0 + 1, lo1 + 5}};
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  const auto drive = [&](int rank, const std::vector<std::vector<std::int64_t>>& batches) {
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& batch : batches) {
        store.prefetch_batch(rank, batch);
        for (std::int64_t id : batch) {
          const auto [x, y] = store.fetch(rank, id);
          const auto [ox, oy] = ds.get(id);
          if (ops::max_abs_diff(x, ox.contiguous()) != 0.0f ||
              ops::max_abs_diff(y, oy.contiguous()) != 0.0f) {
            ++mismatches;
          }
        }
        store.notify_batch_delivered(rank);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(drive, 0, from1);
  threads.emplace_back(drive, 1, from0);
  threads.emplace_back(drive, reader_a, mixed);
  threads.emplace_back(drive, reader_b, from0);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const dist::StoreStats st = store.stats();
  EXPECT_EQ(st.local_snapshots, 0u);
  EXPECT_EQ(st.remote_snapshots, 4u * kRounds * 2u * 3u);
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
  EXPECT_NEAR(st.overlapped_seconds + st.exposed_seconds, st.modeled_seconds, 1e-9)
      << "every request was delivered, readers' included";
}

// ------------------------------------------ PrefetchLoader stress

TEST(PrefetchStress, AbortRestartStormKeepsSequencesExact) {
  // Repeated partial consumption + immediate restarts: the abort path,
  // the slot handoff, and the epoch_ handoff all get hammered.  Run
  // under PGTI_SANITIZE=thread (scripts/check.sh) this is the data-race
  // regression test for PrefetchLoader::worker_loop reading epoch_.
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
  data::PrefetchLoader prefetch(inner);
  data::Batch b;
  for (int iter = 0; iter < 60; ++iter) {
    const int epoch = iter % 3;
    prefetch.start_epoch(epoch);
    const int consume = iter % 5;  // 0..4 batches, then abandon mid-epoch
    for (int k = 0; k < consume; ++k) {
      ASSERT_TRUE(prefetch.next(b)) << "iter " << iter << " batch " << k;
      ASSERT_EQ(b.indices,
                expected[static_cast<std::size_t>(epoch)][static_cast<std::size_t>(k)])
          << "iter " << iter << " batch " << k;
    }
  }
  // After the storm a full epoch still delivers the exact sequence.
  prefetch.start_epoch(1);
  std::size_t i = 0;
  while (prefetch.next(b)) {
    ASSERT_LT(i, expected[1].size());
    EXPECT_EQ(b.indices, expected[1][i]);
    ++i;
  }
  EXPECT_EQ(i, expected[1].size());
}

// Wraps a local dataset but fails exactly one get() call — the shape
// of a staging failure surfaced by a remote-backed source.
class ThrowOnceSource final : public data::SnapshotSource {
 public:
  ThrowOnceSource(const data::IndexDataset& d, std::int64_t throw_at_call)
      : d_(&d), countdown_(throw_at_call) {}
  std::pair<Tensor, Tensor> get(std::int64_t i) const override {
    if (countdown_ >= 0 && countdown_-- == 0) {
      throw std::runtime_error("synthetic staging failure");
    }
    return d_->get(i);
  }
  std::int64_t num_snapshots() const override { return d_->num_snapshots(); }
  MemorySpaceId space() const override { return d_->space(); }
  const data::StandardScaler& scaler() const override { return d_->scaler(); }
  const data::SplitRanges& splits() const override { return d_->splits(); }
  const data::DatasetSpec& spec() const override { return d_->spec(); }

 private:
  const data::IndexDataset* d_;
  mutable std::int64_t countdown_;
};

TEST(PrefetchStress, WorkerExceptionSurfacesOnConsumerAndRestartRecovers) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 11);
  data::IndexDataset ds(raw, spec);
  ThrowOnceSource source(ds, /*throw_at_call=*/12);  // mid second batch
  data::LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kNone, 0, 1, 1, 8};
  data::DataLoader inner(source, opt, 0, 48);
  data::PrefetchLoader prefetch(inner);
  prefetch.start_epoch(0);
  data::Batch b;
  EXPECT_THROW(
      {
        while (prefetch.next(b)) {
        }
      },
      std::runtime_error)
      << "the worker-thread failure must surface on the consumer";
  // Restart is explicit recovery: the full epoch delivers again.
  prefetch.start_epoch(0);
  int count = 0;
  while (prefetch.next(b)) ++count;
  EXPECT_EQ(count, 6);
}

TEST(PrefetchStress, ProductionCapGoesQuiescentAndRedelivers) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 10);
  data::IndexDataset ds(raw, spec);
  data::IndexSource source(ds);
  data::LoaderOptions opt;
  opt.batch_size = 16;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, 0, 1, 3, 16};
  data::DataLoader inner(source, opt, 0, 100);
  data::PrefetchLoader prefetch(inner);
  data::Batch b;
  for (int epoch = 0; epoch < 3; ++epoch) {
    prefetch.start_epoch(epoch, /*max_batches=*/2);
    int count = 0;
    while (prefetch.next(b)) ++count;
    EXPECT_EQ(count, 2) << "epoch " << epoch;
  }
  prefetch.start_epoch(0);  // uncapped again
  int count = 0;
  while (prefetch.next(b)) ++count;
  EXPECT_EQ(count, 6);
}

// ------------------------------------------ DistTrainer end to end

core::DistConfig prefetch_dist(core::DistMode mode) {
  core::DistConfig cfg;
  cfg.spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  cfg.spec.horizon = 4;
  cfg.spec.batch_size = 8;
  cfg.mode = mode;
  cfg.world = 2;
  cfg.epochs = 2;
  cfg.hidden_dim = 8;
  cfg.diffusion_steps = 1;
  cfg.max_batches_per_epoch = 4;
  cfg.max_val_batches = 2;
  cfg.seed = 47;
  return cfg;
}

TEST(DistPrefetch, BaselineLossesBitIdenticalAndExposedStrictlyLower) {
  core::DistConfig cfg = prefetch_dist(core::DistMode::kBaselineDdp);
  cfg.prefetch_depth = 0;
  const core::DistResult off = core::DistTrainer(cfg).run();
  cfg.prefetch_depth = 1;
  const core::DistResult on = core::DistTrainer(cfg).run();

  // The pipeline must not perturb training by a single bit.
  ASSERT_EQ(on.curve.size(), off.curve.size());
  for (std::size_t e = 0; e < off.curve.size(); ++e) {
    EXPECT_EQ(on.curve[e].train_mae, off.curve[e].train_mae) << "epoch " << e;
    EXPECT_EQ(on.curve[e].val_mae, off.curve[e].val_mae) << "epoch " << e;
  }

  // Without prefetch everything is exposed; with prefetch the compute
  // window between announcement and first need is hidden.
  EXPECT_GT(off.modeled_fetch_seconds, 0.0);
  EXPECT_NEAR(off.modeled_fetch_seconds, off.store.modeled_seconds, 1e-9);
  EXPECT_LT(on.modeled_fetch_seconds, off.modeled_fetch_seconds);
  EXPECT_GT(on.store.overlapped_seconds, 0.0);
  EXPECT_NEAR(on.store.overlapped_seconds + on.store.exposed_seconds,
              on.store.modeled_seconds, 1e-9);

  // Lookahead may announce (and stage) batches a truncated epoch never
  // consumed — never fewer than the synchronous run, and the ledger
  // must stay backed by real byte movement in both.
  EXPECT_GE(on.store.remote_snapshots, off.store.remote_snapshots);
  EXPECT_EQ(off.store.remote_bytes,
            off.store.bytes_copied + off.store.cache_hit_bytes);
  EXPECT_EQ(on.store.remote_bytes,
            on.store.bytes_copied + on.store.cache_hit_bytes);
}

TEST(DistPrefetch, ZeroCapacityCacheTrainsWithExactLedger) {
  core::DistConfig cfg = prefetch_dist(core::DistMode::kBaselineDdp);
  cfg.prefetch_depth = 1;
  cfg.store_cache_snapshots = 0;
  const core::DistResult r = core::DistTrainer(cfg).run();
  ASSERT_GT(r.store.remote_snapshots, 0u);
  EXPECT_EQ(r.store.remote_bytes, r.store.bytes_copied + r.store.cache_hit_bytes);
  EXPECT_GT(r.store.overlapped_seconds, 0.0);
}

TEST(DistPrefetch, BytesBoundedCacheTrainsWithExactLedger) {
  core::DistConfig cfg = prefetch_dist(core::DistMode::kBaselineDdpBatchShuffle);
  cfg.prefetch_depth = 1;
  cfg.store_cache_snapshots = 1 << 20;  // count bound slack
  cfg.store_cache_bytes =
      4 * 2 * cfg.spec.horizon * cfg.spec.nodes * cfg.spec.features *
      static_cast<std::int64_t>(sizeof(float));  // four snapshots' worth
  const core::DistResult r = core::DistTrainer(cfg).run();
  ASSERT_GT(r.store.remote_snapshots, 0u);
  EXPECT_EQ(r.store.remote_bytes, r.store.bytes_copied + r.store.cache_hit_bytes);
}

TEST(DistPrefetch, IndexModesBitIdenticalWithPrefetch) {
  // The loader-level double buffering alone (no store in these modes)
  // must also leave every loss bit-identical.
  for (core::DistMode mode :
       {core::DistMode::kDistributedIndex, core::DistMode::kGeneralizedIndex}) {
    core::DistConfig cfg = prefetch_dist(mode);
    cfg.epochs = 1;
    cfg.prefetch_depth = 0;
    const core::DistResult off = core::DistTrainer(cfg).run();
    cfg.prefetch_depth = 1;
    const core::DistResult on = core::DistTrainer(cfg).run();
    ASSERT_EQ(on.curve.size(), off.curve.size());
    for (std::size_t e = 0; e < off.curve.size(); ++e) {
      EXPECT_EQ(on.curve[e].train_mae, off.curve[e].train_mae)
          << "mode " << static_cast<int>(mode) << " epoch " << e;
      EXPECT_EQ(on.curve[e].val_mae, off.curve[e].val_mae)
          << "mode " << static_cast<int>(mode) << " epoch " << e;
    }
    EXPECT_EQ(on.modeled_fetch_seconds, 0.0);
  }
}

TEST(DistPrefetch, StoreCountersRepeatAcrossRuns) {
  // Each rank's prefetch worker is the only thread that stages, so the
  // sequence of cache operations per rank — and every counter it
  // drives — is a function of the job alone, at depth 2 included.
  core::DistConfig cfg = prefetch_dist(core::DistMode::kBaselineDdp);
  cfg.world = 4;
  cfg.prefetch_depth = 2;
  cfg.store_cache_snapshots = 16;
  cfg.max_batches_per_epoch = 8;
  cfg.seed = 17;
  const dist::StoreStats first = core::DistTrainer(cfg).run().store;
  ASSERT_GT(first.cache_evictions, 0u);
  for (int run = 1; run < 5; ++run) {
    const dist::StoreStats st = core::DistTrainer(cfg).run().store;
    EXPECT_EQ(st.bytes_copied, first.bytes_copied) << "run " << run;
    EXPECT_EQ(st.cache_hits, first.cache_hits) << "run " << run;
    EXPECT_EQ(st.cache_hit_bytes, first.cache_hit_bytes) << "run " << run;
    EXPECT_EQ(st.cache_evictions, first.cache_evictions) << "run " << run;
  }
}

TEST(DistPrefetch, ModeledAllreduceSecondsCountCollectivesOnly) {
  // Both strategies run the same collectives on the recording rank, so
  // they report the same modeled all-reduce seconds, bit for bit, no
  // matter what the store's fetches add to the modeled clock.
  for (int depth : {0, 2}) {
    core::DistConfig cfg = prefetch_dist(core::DistMode::kDistributedIndex);
    cfg.prefetch_depth = depth;
    const core::DistResult index = core::DistTrainer(cfg).run();
    cfg.mode = core::DistMode::kBaselineDdp;
    const core::DistResult baseline = core::DistTrainer(cfg).run();
    ASSERT_GT(index.modeled_allreduce_seconds, 0.0);
    ASSERT_GT(baseline.modeled_fetch_seconds, 0.0);
    EXPECT_EQ(std::memcmp(&index.modeled_allreduce_seconds,
                          &baseline.modeled_allreduce_seconds, sizeof(double)),
              0)
        << "depth " << depth << ": " << index.modeled_allreduce_seconds << " vs "
        << baseline.modeled_allreduce_seconds;
  }
}

// ------------------------------------------ schedule-aware eviction

TEST(ScheduleAwareEviction, NearerScheduledSnapshotOutlivesConsumedResidue) {
  // A resident snapshot the announced schedule still needs must not be
  // evicted while already-consumed residue (unscheduled, or scheduled
  // only in the past) is available — the victim plain LRU would pick
  // here is exactly the wrong one.
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 4, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/2);
  const auto [lo1, hi1] = store.partition(1);
  ASSERT_GE(hi1 - lo1, 3);
  const std::int64_t a = lo1, b = lo1 + 1, c = lo1 + 2;
  const std::uint64_t sb = static_cast<std::uint64_t>(store.snapshot_bytes());
  const auto touch = [&](std::int64_t id) {
    store.prefetch_batch(0, {id});
    store.fetch(0, id);
  };

  // Epoch 1, schedule [b, a]: both consumed; LRU now front=a, back=b.
  std::vector<std::int64_t> epoch1{b, a};
  store.announce_schedule(0, epoch1);
  touch(b);
  touch(a);
  EXPECT_EQ(store.stats().bytes_copied, 2u * sb);
  EXPECT_EQ(store.stats().cache_evictions, 0u);

  // Epoch 2, schedule [c, b]: b is needed again one batch from now but
  // is NOT yet announced (beyond the lookahead window); a is residue.
  std::vector<std::int64_t> epoch2{c, b};
  store.announce_schedule(0, epoch2);
  touch(c);  // staging c overflows capacity 2 -> one eviction
  EXPECT_EQ(store.stats().cache_evictions, 1u);
  // Plain LRU would have evicted b (least recently used); the schedule
  // says b is nearer-future, so a must have been the victim...
  touch(b);
  const dist::StoreStats st = store.stats();
  EXPECT_EQ(st.cache_hits, 1u) << "b must still be resident (a was evicted)";
  EXPECT_EQ(st.bytes_copied, 3u * sb) << "a, b, c copied exactly once each";
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
}

TEST(ScheduleAwareEviction, CrossEpochScheduleKeepsBoundaryResidueHot) {
  // Boundary blindness fix: loaders announce the current epoch's order
  // PLUS the next one's, so end-of-epoch eviction sees that a resident
  // snapshot the coming epoch reuses has a future position — instead
  // of treating everything consumed as dead residue and evicting by
  // plain LRU, which at tight capacity is exactly backwards.
  data::StandardDataset ds = tiny_dataset();
  const auto touch = [](dist::DistStore& store, std::int64_t id) {
    store.prefetch_batch(0, {id});
    store.fetch(0, id);
  };

  // Cross-epoch announcement [n, r, x | n]: epoch 1 consumes n then r,
  // and staging x (pinned, never consumed — the truncated tail)
  // overflows capacity 2.  n carries a future position from the next
  // epoch's head, so the victim must be r.
  {
    dist::DistStore store(ds, 4, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/2);
    const auto [lo1, hi1] = store.partition(1);
    ASSERT_GE(hi1 - lo1, 3);
    const std::int64_t n = lo1, r = lo1 + 1, x = lo1 + 2;
    const std::uint64_t sb = static_cast<std::uint64_t>(store.snapshot_bytes());
    store.announce_schedule(0, {n, r, x, n});
    touch(store, n);
    touch(store, r);
    store.prefetch_batch(0, {x});  // boundary eviction: r out, n protected
    EXPECT_EQ(store.stats().cache_evictions, 1u);
    store.abandon_prefetches(0);  // schedule survives the boundary
    store.announce_schedule(0, {n});  // epoch 2 re-announces as usual
    touch(store, n);
    const dist::StoreStats st = store.stats();
    EXPECT_EQ(st.cache_hits, 1u)
        << "n must still be resident across the epoch boundary";
    EXPECT_EQ(st.bytes_copied, 3u * sb) << "n, r, x copied exactly once each";
    EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
  }

  // Control: the same traffic with an epoch-local announcement.  By
  // eviction time everything consumed is residue, LRU picks the oldest
  // — n — and the boundary reuse pays a second copy.
  {
    dist::DistStore store(ds, 4, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/2);
    const auto [lo1, hi1] = store.partition(1);
    const std::int64_t n = lo1, r = lo1 + 1, x = lo1 + 2;
    (void)r;
    const std::uint64_t sb = static_cast<std::uint64_t>(store.snapshot_bytes());
    store.announce_schedule(0, {n, r, x});
    touch(store, n);
    touch(store, r);
    store.prefetch_batch(0, {x});
    EXPECT_EQ(store.stats().cache_evictions, 1u);
    store.abandon_prefetches(0);
    store.announce_schedule(0, {n});
    touch(store, n);
    const dist::StoreStats st = store.stats();
    EXPECT_EQ(st.cache_hits, 0u) << "epoch-local schedule loses n at the boundary";
    EXPECT_EQ(st.bytes_copied, 4u * sb) << "n copied twice";
  }
}

TEST(ScheduleAwareEviction, WithoutScheduleEvictionDegradesToPlainLru) {
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 4, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/2);
  const auto [lo1, hi1] = store.partition(1);
  ASSERT_GE(hi1 - lo1, 3);
  const auto touch = [&](std::int64_t id) {
    store.prefetch_batch(0, {id});
    store.fetch(0, id);
  };
  touch(lo1);      // LRU back
  touch(lo1 + 1);  // LRU front
  touch(lo1 + 2);  // evicts lo1 (no schedule announced)
  EXPECT_EQ(store.stats().cache_evictions, 1u);
  touch(lo1 + 1);  // still resident -> hit
  EXPECT_EQ(store.stats().cache_hits, 1u);
}

// ------------------------------------------ depth-N generalization

TEST(DepthNPrefetch, LossesBitIdenticalAcrossDepthsAllStrategies) {
  // The acceptance bar of the depth-N pipeline: per-epoch losses
  // bit-identical across prefetch_depth in {off, 1, 2, 4} for every
  // distribution strategy.
  for (core::DistMode mode :
       {core::DistMode::kDistributedIndex, core::DistMode::kBaselineDdp,
        core::DistMode::kGeneralizedIndex,
        core::DistMode::kBaselineDdpBatchShuffle}) {
    core::DistConfig cfg = prefetch_dist(mode);
    cfg.prefetch_depth = 0;
    const core::DistResult base = core::DistTrainer(cfg).run();
    for (int depth : {1, 2, 4}) {
      core::DistConfig dcfg = cfg;
      dcfg.prefetch_depth = depth;
      const core::DistResult r = core::DistTrainer(dcfg).run();
      ASSERT_EQ(r.curve.size(), base.curve.size());
      for (std::size_t e = 0; e < base.curve.size(); ++e) {
        EXPECT_EQ(r.curve[e].train_mae, base.curve[e].train_mae)
            << "mode " << static_cast<int>(mode) << " depth " << depth
            << " epoch " << e;
        EXPECT_EQ(r.curve[e].val_mae, base.curve[e].val_mae)
            << "mode " << static_cast<int>(mode) << " depth " << depth
            << " epoch " << e;
      }
    }
  }
}

TEST(DepthNPrefetch, PricedLedgerIndependentOfDepth) {
  // Production caps keep every announced batch consumed, so the priced
  // fetch model must not depend on how deep the pipeline runs; only
  // the cache's copied/hit split may shift (eviction timing differs
  // with N batches pinned), and it must always decompose exactly.
  core::DistConfig cfg = prefetch_dist(core::DistMode::kBaselineDdp);
  cfg.prefetch_depth = 0;
  const core::DistResult sync_r = core::DistTrainer(cfg).run();
  ASSERT_GT(sync_r.store.remote_snapshots, 0u);
  for (int depth : {1, 2, 4}) {
    core::DistConfig dcfg = cfg;
    dcfg.prefetch_depth = depth;
    const core::DistResult r = core::DistTrainer(dcfg).run();
    EXPECT_EQ(r.store.local_snapshots, sync_r.store.local_snapshots) << depth;
    EXPECT_EQ(r.store.remote_snapshots, sync_r.store.remote_snapshots) << depth;
    EXPECT_EQ(r.store.remote_bytes, sync_r.store.remote_bytes) << depth;
    EXPECT_EQ(r.store.request_messages, sync_r.store.request_messages) << depth;
    EXPECT_NEAR(r.store.modeled_seconds, sync_r.store.modeled_seconds, 1e-9)
        << depth;
    EXPECT_EQ(r.store.remote_bytes,
              r.store.bytes_copied + r.store.cache_hit_bytes)
        << depth;
    EXPECT_NEAR(r.store.overlapped_seconds + r.store.exposed_seconds,
                r.store.modeled_seconds, 1e-9)
        << depth;
    EXPECT_LE(r.modeled_fetch_seconds, sync_r.modeled_fetch_seconds) << depth;
  }
}

TEST(DepthNPrefetch, TruncatedEpochReconciliationAtDepthFour) {
  // A consumer that walks away mid-epoch leaves up to depth announced
  // batches in flight; the next start_epoch abandons them.  Orphans
  // still move their bytes (the ledger stays backed by real movement)
  // and count as fully overlapped; afterwards the stats decompose
  // exactly and the pipeline delivers clean epochs again.
  data::StandardDataset ds = tiny_dataset();
  dist::DistStore store(ds, 2, dist::NetworkModel{}, /*cache_snapshots_per_rank=*/0);
  data::RankSource source(store, /*rank=*/0);
  data::LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, 0, 1, 13, 8};
  opt.prefetch_lookahead = 4;
  const std::int64_t n = store.num_snapshots();
  data::DataLoader inner(source, opt, 0, n);
  data::PrefetchLoader prefetch(inner, /*depth=*/4);

  data::Batch b;
  for (int epoch = 0; epoch < 3; ++epoch) {
    prefetch.start_epoch(epoch);  // abandons the previous epoch's leftovers
    ASSERT_TRUE(prefetch.next(b)) << epoch;  // consume one batch, walk away
  }
  // Quiesce the worker (a zero-batch epoch assembles nothing; its
  // start abandons epoch 2's leftovers) and close the split: whatever
  // was announced but never consumed was never waited on.
  prefetch.start_epoch(0, /*max_batches=*/0);
  EXPECT_FALSE(prefetch.next(b));
  store.abandon_prefetches(0);
  store.drain_modeled_seconds(0);
  const dist::StoreStats st = store.stats();
  ASSERT_GT(st.remote_snapshots, 0u);
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
  EXPECT_NEAR(st.overlapped_seconds + st.exposed_seconds, st.modeled_seconds, 1e-9);

  // The pipeline recovers: a full epoch delivers the exact sequence.
  data::DataLoader plain_loader(source, data::LoaderOptions{opt.batch_size,
                                                            opt.sampler, true},
                                0, n);
  plain_loader.start_epoch(7);
  std::vector<std::vector<std::int64_t>> expected;
  while (plain_loader.next(b)) expected.push_back(b.indices);
  store.abandon_prefetches(0);  // release the plain loader's announcements
  prefetch.start_epoch(7);
  std::size_t i = 0;
  while (prefetch.next(b)) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(b.indices, expected[i]);
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  const dist::StoreStats final_st = store.stats();
  EXPECT_EQ(final_st.remote_bytes,
            final_st.bytes_copied + final_st.cache_hit_bytes);
}

}  // namespace
}  // namespace pgti
