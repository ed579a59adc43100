#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>

#include "autograd/ops.h"
#include "data/dataset_spec.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "dist/cluster_model.h"
#include "dist/comm.h"
#include "dist/ddp.h"
#include "dist/dist_store.h"
#include "dist/transport_socket.h"
#include "runtime/memory_tracker.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor_ops.h"

namespace pgti::dist {
namespace {

// --------------------------------------------------------------- comm

TEST(Cluster, RunsEveryRankOnce) {
  Cluster cluster(4);
  std::atomic<int> count{0};
  std::array<std::atomic<bool>, 4> seen{};
  cluster.run([&](Communicator& comm) {
    seen[static_cast<std::size_t>(comm.rank())] = true;
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
  for (const auto& s : seen) EXPECT_TRUE(s.load());
}

TEST(Cluster, PropagatesWorkerException) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
                 if (comm.rank() == 0) return;
                 throw std::runtime_error("worker died");
               }),
               std::runtime_error);
}

TEST(Cluster, WorkerDeathDoesNotDeadlockPeersInCollectives) {
  // Rank 2 dies before the collective; the others must unwind via
  // PeerFailureError instead of blocking at the barrier forever, and
  // run() must rethrow the ORIGINAL error.
  Cluster cluster(4);
  try {
    cluster.run([](Communicator& comm) {
      if (comm.rank() == 2) throw std::runtime_error("oom in worker 2");
      float v = 1.0f;
      for (int i = 0; i < 100; ++i) comm.allreduce_sum(&v, 1);
    });
    FAIL() << "expected the worker error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "oom in worker 2");
  }
}

TEST(Cluster, MidTrainingDeathUnwindsCleanly) {
  Cluster cluster(3);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
                 float v = static_cast<float>(comm.rank());
                 for (int step = 0;; ++step) {
                   comm.allreduce_sum(&v, 1);
                   if (step == 5 && comm.rank() == 1) {
                     throw std::runtime_error("died at step 5");
                   }
                 }
               }),
               std::runtime_error);
}

TEST(Cluster, RanksSplitThePool) {
  // W ranks in one process split the kernel pool: each rank's loops
  // fork at most max(1, P / W) ways, so together they use at most the
  // pool's P threads, over either transport.
  const int pool = ThreadPool::global().size();
  constexpr std::int64_t kN = 4096;
  for (int world : {1, 2, 4, 8}) {
    const std::size_t share = static_cast<std::size_t>(std::max(1, pool / world));
    std::vector<std::size_t> threads_used(static_cast<std::size_t>(world));
    std::vector<int> indices_off(static_cast<std::size_t>(world));
    auto rank_loop = [&](Communicator& comm) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
      std::mutex mu;
      std::set<std::thread::id> threads;
      parallel_for(0, kN, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
        std::lock_guard<std::mutex> lk(mu);
        threads.insert(std::this_thread::get_id());
      });
      const auto r = static_cast<std::size_t>(comm.rank());
      threads_used[r] = threads.size();
      indices_off[r] = static_cast<int>(std::count_if(
          hits.begin(), hits.end(), [](const std::atomic<int>& h) { return h.load() != 1; }));
    };
    for (bool sockets : {false, true}) {
      std::fill(threads_used.begin(), threads_used.end(), 0);
      std::fill(indices_off.begin(), indices_off.end(), -1);
      if (sockets) {
        SocketCluster(world).run(rank_loop);
      } else {
        Cluster(world).run(rank_loop);
      }
      for (int r = 0; r < world; ++r) {
        const auto i = static_cast<std::size_t>(r);
        EXPECT_EQ(indices_off[i], 0)
            << "world=" << world << " sockets=" << sockets << " rank=" << r;
        EXPECT_GE(threads_used[i], 1u);
        EXPECT_LE(threads_used[i], share)
            << "world=" << world << " sockets=" << sockets << " rank=" << r;
      }
    }
  }
}

class AllreduceWorlds : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceWorlds, SumsAcrossRanks) {
  const int w = GetParam();
  Cluster cluster(w);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(64);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>(comm.rank() + 1);
    }
    comm.allreduce_sum(data.data(), static_cast<std::int64_t>(data.size()));
    const float expected = static_cast<float>(w * (w + 1) / 2);
    for (float v : data) ASSERT_EQ(v, expected);
  });
}

TEST_P(AllreduceWorlds, MeanDividesByWorld) {
  const int w = GetParam();
  Cluster cluster(w);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(8, static_cast<float>(comm.rank()));
    comm.allreduce_mean(data.data(), 8);
    const float expected = static_cast<float>(w - 1) / 2.0f;
    for (float v : data) ASSERT_NEAR(v, expected, 1e-6f);
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, AllreduceWorlds, ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Comm, AllreduceBitIdenticalAcrossRanks) {
  // Rank-ordered accumulation: every rank must see the same bits even
  // for values where float addition order matters.
  Cluster cluster(4);
  std::array<std::vector<float>, 4> results;
  cluster.run([&](Communicator& comm) {
    Rng rng(static_cast<std::uint64_t>(comm.rank()) + 1);
    std::vector<float> data(128);
    for (auto& v : data) v = static_cast<float>(rng.normal()) * 1e4f;
    comm.allreduce_sum(data.data(), 128);
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (int r = 1; r < 4; ++r) {
    ASSERT_EQ(results[0], results[static_cast<std::size_t>(r)]);
  }
}

TEST(Comm, ScalarSum) {
  Cluster cluster(5);
  cluster.run([&](Communicator& comm) {
    const double total = comm.allreduce_scalar_sum(static_cast<double>(comm.rank()));
    ASSERT_DOUBLE_EQ(total, 10.0);
  });
}

TEST(Comm, BroadcastFromRoot) {
  Cluster cluster(4);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(16, comm.rank() == 2 ? 7.5f : 0.0f);
    comm.broadcast(data.data(), 16, /*root=*/2);
    for (float v : data) ASSERT_EQ(v, 7.5f);
  });
}

TEST(Comm, TreeBroadcastFromEveryRootEveryWorld) {
  // The prefix-doubling delivery must reach every rank from any root,
  // including non-power-of-two worlds, and leave root's exact bits.
  for (int w : {1, 2, 3, 5, 8}) {
    for (int root = 0; root < w; ++root) {
      Cluster cluster(w);
      cluster.run([&](Communicator& comm) {
        std::vector<float> data(33, static_cast<float>(comm.rank()) - 100.0f);
        if (comm.rank() == root) {
          for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<float>(root * 1000 + static_cast<int>(i));
          }
        }
        comm.broadcast(data.data(), 33, root);
        for (std::size_t i = 0; i < data.size(); ++i) {
          ASSERT_EQ(data[i], static_cast<float>(root * 1000 + static_cast<int>(i)))
              << "w=" << w << " root=" << root << " rank=" << comm.rank();
        }
      });
    }
  }
}

TEST(Comm, BroadcastBytesCountPayloadTimesReceivers) {
  Cluster cluster(4);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(16, comm.rank() == 1 ? 3.0f : 0.0f);
    comm.broadcast(data.data(), 16, /*root=*/1);
  });
  const CommStats stats = cluster.stats();
  EXPECT_EQ(stats.broadcast_count, 1u);
  EXPECT_EQ(stats.broadcast_bytes, 16u * sizeof(float) * 3u);
}

TEST(Comm, BroadcastReleasesPeersAtEveryTreeStage) {
  // Mirrors TreeFailure.PeersReleasedAtEveryTreeDepth for the
  // broadcast tree: the last rank dies upon entering sync point
  // `depth` of a broadcast; peers must unwind via PeerFailureError at
  // every delivery stage and run() must rethrow the original error.
  for (int w : {2, 3, 5, 8}) {
    const int points = alg::broadcast_sync_points(w);
    ASSERT_GE(points, 2) << "w=" << w;
    for (int depth = 0; depth < points; ++depth) {
      Cluster cluster(w);
      cluster.inject_fault_at_sync_point(w - 1, static_cast<std::uint64_t>(depth),
                                         "broadcast fault");
      try {
        cluster.run([&](Communicator& comm) {
          std::vector<float> data(8, static_cast<float>(comm.rank()));
          comm.broadcast(data.data(), 8, /*root=*/0);
          ADD_FAILURE() << "rank " << comm.rank()
                        << " completed the broadcast past a dead peer (w=" << w
                        << ", depth=" << depth << ")";
        });
        FAIL() << "expected the original error (w=" << w << ", depth=" << depth
               << ")";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "broadcast fault") << "w=" << w << ", depth=" << depth;
      }
    }
  }
}

TEST(Comm, AllgatherOrdersByRank) {
  Cluster cluster(3);
  cluster.run([&](Communicator& comm) {
    const auto all = comm.allgather(static_cast<double>(comm.rank() * 10));
    ASSERT_EQ(all.size(), 3u);
    for (int r = 0; r < 3; ++r) ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r * 10.0);
  });
}

TEST(Comm, StatsAndModeledTime) {
  Cluster cluster(4);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(256, 1.0f);
    comm.allreduce_sum(data.data(), 256);
    comm.allreduce_sum(data.data(), 256);
  });
  const CommStats stats = cluster.stats();
  EXPECT_EQ(stats.allreduce_count, 2u);
  EXPECT_EQ(stats.allreduce_bytes, 2u * 256 * 4 * 4);
  EXPECT_GT(cluster.modeled_comm_seconds(), 0.0);
}

TEST(Comm, ModeledTimeIsPerRun) {
  // Regression: sim_clock_ used to accumulate across run() calls, so a
  // reused Cluster reported the SUM of all runs' modeled comm time.
  Cluster cluster(4);
  const auto job = [](Communicator& comm) {
    std::vector<float> data(256, 1.0f);
    comm.allreduce_sum(data.data(), 256);
  };
  cluster.run(job);
  const double first = cluster.modeled_comm_seconds();
  EXPECT_GT(first, 0.0);
  cluster.run(job);
  EXPECT_DOUBLE_EQ(cluster.modeled_comm_seconds(), first)
      << "back-to-back runs must report independent modeled times";
  // Traffic stats, by contrast, do accumulate (documented behaviour).
  EXPECT_EQ(cluster.stats().allreduce_count, 2u);
}

TEST(Comm, TreeScheduleShape) {
  EXPECT_EQ(alg::allreduce_stages(1), 1);
  EXPECT_EQ(alg::allreduce_stages(2), 1);
  EXPECT_EQ(alg::allreduce_stages(3), 2);
  EXPECT_EQ(alg::allreduce_stages(4), 2);
  EXPECT_EQ(alg::allreduce_stages(5), 3);
  EXPECT_EQ(alg::allreduce_stages(8), 3);
  EXPECT_EQ(alg::allreduce_stages(9), 4);
  EXPECT_EQ(alg::allreduce_sync_points(8), alg::allreduce_stages(8) + 3);
}

TEST(Comm, RepeatedCollectivesStressBarrier) {
  Cluster cluster(8);
  cluster.run([&](Communicator& comm) {
    float v = static_cast<float>(comm.rank());
    for (int i = 0; i < 200; ++i) {
      float x = v;
      comm.allreduce_sum(&x, 1);
      ASSERT_EQ(x, 28.0f);  // 0+..+7
      comm.barrier();
    }
  });
}

// -------------------------------------------------------------- network model

TEST(NetworkModel, AllreduceGrowsWithBytes) {
  NetworkModel net;
  EXPECT_LT(net.allreduce_seconds(1024, 4), net.allreduce_seconds(1 << 20, 4));
}

TEST(NetworkModel, SingleWorkerIsFree) {
  NetworkModel net;
  EXPECT_EQ(net.allreduce_seconds(1 << 20, 1), 0.0);
}

TEST(NetworkModel, InterNodeSlowerThanIntra) {
  NetworkModel net;
  EXPECT_GT(net.allreduce_seconds(1 << 24, 8),   // crosses nodes
            net.allreduce_seconds(1 << 24, 4));  // single node
}

TEST(NetworkModel, RingAsymptoteBoundedBy2x) {
  // Ring all-reduce moves at most 2x the buffer regardless of W.
  NetworkModel net;
  net.latency_s = 0.0;
  const double t128 = net.allreduce_seconds(1 << 20, 128);
  const double bound = 2.0 * static_cast<double>(1 << 20) / net.effective_bw(128);
  EXPECT_LE(t128, bound * 1.001);
}

// ------------------------------------------------------- fetch model

TEST(FetchModel, ContiguousOwnership) {
  FetchModel model(100, 1000, 4, NetworkModel{});
  EXPECT_EQ(model.owner(0), 0);
  EXPECT_EQ(model.owner(24), 0);
  EXPECT_EQ(model.owner(25), 1);
  EXPECT_EQ(model.owner(99), 3);
  EXPECT_THROW(model.owner(100), std::out_of_range);
  const auto [lo, hi] = model.partition(2);
  EXPECT_EQ(lo, 50);
  EXPECT_EQ(hi, 75);
  // Ranks past the workers own nothing; negative ranks do not exist.
  const auto [rlo, rhi] = model.partition(4);
  EXPECT_EQ(rlo, rhi);
  EXPECT_THROW(model.partition(-1), std::out_of_range);
}

TEST(FetchModel, LocalFetchesAreFree) {
  FetchModel model(100, 1000, 4, NetworkModel{});
  const FetchModel::Price p = model.price(0, {0, 1, 2, 24});
  EXPECT_EQ(p.seconds, 0.0);
  EXPECT_EQ(p.remote, 0u);
  EXPECT_EQ(p.local, 4u);
  EXPECT_TRUE(p.remote_ids.empty());
}

TEST(FetchModel, RemoteFetchesCountBytes) {
  FetchModel model(100, 1000, 4, NetworkModel{});
  const FetchModel::Price p = model.price(0, {30, 31, 60});
  EXPECT_EQ(p.remote, 3u);
  EXPECT_EQ(p.bytes, 3000u);
  EXPECT_EQ(p.remote_ids, (std::vector<std::int64_t>{30, 31, 60}));
  EXPECT_GT(p.seconds, 0.0);
}

TEST(FetchModel, ConsolidatedRequestsOnePerOwner) {
  FetchModel model(100, 1000, 4, NetworkModel{}, /*consolidate=*/true);
  EXPECT_EQ(model.price(0, {30, 31, 32, 60, 61}).messages, 2u);  // owners 1 and 2
}

TEST(FetchModel, PerItemRequestsWithoutConsolidation) {
  FetchModel model(100, 1000, 4, NetworkModel{}, /*consolidate=*/false);
  EXPECT_EQ(model.price(0, {30, 31, 32, 60, 61}).messages, 5u);
}

TEST(FetchModel, ConsolidationIsCheaper) {
  // The paper's baseline optimization: batch requests beat per-item.
  NetworkModel net;
  FetchModel batched(10000, 100000, 8, net, true);
  FetchModel per_item(10000, 100000, 8, net, false);
  std::vector<std::int64_t> batch;
  for (std::int64_t i = 5000; i < 5064; ++i) batch.push_back(i);
  EXPECT_LT(batched.price(0, batch).seconds, per_item.price(0, batch).seconds);
}

TEST(FetchModel, ReaderRankPaysForEveryAccess) {
  // A rank past the workers owns nothing, so a batch a worker gets for
  // free is fully remote for it.
  FetchModel model(100, 1000, 4, NetworkModel{});
  const FetchModel::Price p = model.price(/*rank=*/4, {0, 1, 2, 24});
  EXPECT_EQ(p.local, 0u);
  EXPECT_EQ(p.remote, 4u);
  EXPECT_EQ(p.messages, 1u);  // one owner
  EXPECT_GT(p.seconds, 0.0);
}

// ------------------------------------------------------------- store

data::StandardDataset tiny_dataset() {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, /*seed=*/11);
  return data::StandardDataset(raw, spec);
}

TEST(DistStoreMaterialized, LocalFetchIsZeroCopyShardView) {
  data::StandardDataset ds = tiny_dataset();
  DistStore store(ds, 4, NetworkModel{});
  const auto [lo, hi] = store.partition(1);
  ASSERT_LT(lo, hi);
  const auto [x, y] = store.fetch(/*rank=*/1, lo);
  EXPECT_TRUE(x.shares_storage_with(store.shard_x(1)));
  EXPECT_TRUE(y.shares_storage_with(store.shard_y(1)));
  const StoreStats st = store.stats();
  EXPECT_EQ(st.remote_snapshots, 0u);
  EXPECT_EQ(st.bytes_copied, 0u);
}

TEST(DistStoreMaterialized, LedgerRecordsAnAllLocalBatchAsFree) {
  data::StandardDataset ds = tiny_dataset();
  DistStore store(ds, 4, NetworkModel{});
  const auto [lo, hi] = store.partition(2);
  ASSERT_GE(hi - lo, 3);
  const std::vector<std::int64_t> batch{lo, lo + 1, hi - 1};
  store.prefetch_batch(/*rank=*/2, batch);
  for (std::int64_t id : batch) store.fetch(2, id);
  store.notify_batch_delivered(2);
  const StoreStats st = store.stats();
  EXPECT_EQ(st.local_snapshots, batch.size());
  EXPECT_EQ(st.remote_snapshots, 0u);
  EXPECT_EQ(st.remote_bytes, 0u);
  EXPECT_EQ(st.request_messages, 0u);
  EXPECT_EQ(st.modeled_seconds, 0.0);
  EXPECT_EQ(st.bytes_copied, 0u);
  EXPECT_EQ(store.drain_modeled_seconds(2), 0.0);
}

std::ptrdiff_t process_threads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

TEST(DistStoreMaterialized, LegacyConstructorAcceptsOnlyConsolidation) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  EXPECT_NO_THROW(DistStore(tiny_dataset(), 4, NetworkModel{}, true, -1, 0, false));
  EXPECT_THROW(DistStore(tiny_dataset(), 4, NetworkModel{}, false, -1, 0, false),
               std::invalid_argument);

  // The former async_prefetch argument is ignored: the store starts no
  // thread, and the announcing thread has staged a batch by the time
  // prefetch_batch returns.
  data::StandardDataset ds = tiny_dataset();
  const std::ptrdiff_t threads_before = process_threads();
  DistStore store(std::move(ds), 4, NetworkModel{}, true, -1, 0, /*async_prefetch=*/true);
  EXPECT_EQ(process_threads(), threads_before);
#pragma GCC diagnostic pop
  const auto [lo1, hi1] = store.partition(1);
  (void)hi1;
  store.prefetch_batch(0, {lo1, lo1 + 1});
  EXPECT_EQ(store.stats().bytes_copied,
            2u * static_cast<std::uint64_t>(store.snapshot_bytes()));
  store.fetch(0, lo1);
  store.fetch(0, lo1 + 1);
}

TEST(DistStoreMaterialized, RemoteFetchMovesRealBytesBitExactly) {
  data::StandardDataset ds = tiny_dataset();
  DistStore store(ds, 4, NetworkModel{});
  const auto [lo1, hi1] = store.partition(1);
  std::vector<std::int64_t> batch{lo1, lo1 + 1, hi1 - 1};
  store.prefetch_batch(/*rank=*/0, batch);

  const StoreStats st = store.stats();
  EXPECT_EQ(st.modeled_seconds, store.model().price(0, batch).seconds);
  EXPECT_GT(st.modeled_seconds, 0.0);
  EXPECT_EQ(st.remote_snapshots, 3u);
  EXPECT_EQ(st.cache_hits, 0u);
  // The ledger's modeled bytes are now backed by bytes that really
  // moved into rank 0's cache.
  EXPECT_GT(st.bytes_copied, 0u);
  EXPECT_EQ(st.bytes_copied, st.remote_bytes);
  EXPECT_EQ(st.remote_bytes,
            3u * static_cast<std::uint64_t>(store.snapshot_bytes()));

  // The copies are bit-identical to the owner's data but do NOT alias
  // it — the bytes crossed the simulated network.
  for (std::int64_t id : batch) {
    const auto [x, y] = store.fetch(/*rank=*/0, id);
    const auto [ox, oy] = store.fetch(/*rank=*/1, id);
    EXPECT_FALSE(x.shares_storage_with(ox));
    EXPECT_EQ(ops::max_abs_diff(x, ox.contiguous()), 0.0f);
    EXPECT_EQ(ops::max_abs_diff(y, oy.contiguous()), 0.0f);
  }
}

TEST(DistStoreMaterialized, CacheHitsAbsorbRepeatedFetches) {
  data::StandardDataset ds = tiny_dataset();
  DistStore store(ds, 4, NetworkModel{});
  const auto [lo1, hi1] = store.partition(1);
  (void)hi1;
  std::vector<std::int64_t> batch{lo1, lo1 + 1};
  const auto epoch = [&] {
    store.prefetch_batch(0, batch);
    for (std::int64_t id : batch) store.fetch(0, id);
  };
  epoch();
  const std::uint64_t copied_once = store.stats().bytes_copied;
  epoch();  // second epoch touching the same ids
  const StoreStats st = store.stats();
  EXPECT_EQ(st.bytes_copied, copied_once) << "cached snapshots must not re-copy";
  EXPECT_EQ(st.cache_hits, 2u);
  // The model still prices every remote access; the invariant splits
  // it into physically-copied and cache-absorbed bytes exactly.
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
}

TEST(DistStoreMaterialized, SecondAnnouncementBeforeConsumptionThrows) {
  // Announce once, consume once — within one batch too.
  data::StandardDataset ds = tiny_dataset();
  DistStore store(ds, 4, NetworkModel{});
  const auto [lo1, hi1] = store.partition(1);
  (void)hi1;
  store.prefetch_batch(0, {lo1});
  EXPECT_THROW(store.prefetch_batch(0, {lo1}), std::logic_error);
  EXPECT_THROW(store.prefetch_batch(0, {lo1 + 1, lo1 + 1}), std::logic_error);
  store.fetch(0, lo1);
  EXPECT_NO_THROW(store.prefetch_batch(0, {lo1}));
  store.fetch(0, lo1);
  EXPECT_EQ(store.stats().remote_snapshots, 2u) << "the refused ones are not priced";
  EXPECT_EQ(store.stats().bytes_copied,
            static_cast<std::uint64_t>(store.snapshot_bytes()))
      << "nor copied";
}

TEST(DistStoreMaterialized, FailedStagingLeavesTheStoreUnchanged) {
  // A host-space limit lets the first remote snapshot's copy through
  // and refuses the second.  The failure surfaces on the announcing
  // thread, and nothing of the batch is recorded, pinned or in flight.
  data::StandardDataset ds = tiny_dataset();
  DistStore store(ds, 4, NetworkModel{}, /*cache_snapshots_per_rank=*/0);
  const auto [lo1, hi1] = store.partition(1);
  (void)hi1;
  const std::vector<std::int64_t> batch{lo1, lo1 + 1};
  const std::uint64_t sb = static_cast<std::uint64_t>(store.snapshot_bytes());
  MemoryTracker& tracker = MemoryTracker::instance();
  // One snapshot is an x and a y copy of sb / 2 bytes each.
  tracker.set_limit(kHostSpace, tracker.current(kHostSpace) + sb + sb / 4);
  EXPECT_THROW(store.prefetch_batch(0, batch), OutOfMemoryError);
  tracker.set_limit(kHostSpace, 0);
  StoreStats st = store.stats();
  EXPECT_EQ(st.remote_snapshots, 0u) << "no price recorded";
  EXPECT_EQ(st.request_messages, 0u);
  EXPECT_EQ(st.modeled_seconds, 0.0);
  EXPECT_EQ(st.bytes_copied, 0u) << "no copy recorded";
  EXPECT_EQ(st.cache_hits, 0u) << "no hit recorded";
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);

  // With the limit lifted the same batch announces (nothing was left
  // in flight), copies both snapshots (nothing was left resident), and
  // every copy evicts once consumed (nothing was left pinned).
  ASSERT_NO_THROW(store.prefetch_batch(0, batch));
  for (std::int64_t id : batch) {
    const auto [x, y] = store.fetch(0, id);
    const auto [ox, oy] = store.fetch(1, id);
    EXPECT_FALSE(x.shares_storage_with(ox));
    EXPECT_EQ(ops::max_abs_diff(x, ox.contiguous()), 0.0f);
    EXPECT_EQ(ops::max_abs_diff(y, oy.contiguous()), 0.0f);
  }
  store.notify_batch_delivered(0);
  st = store.stats();
  EXPECT_EQ(st.remote_snapshots, 2u);
  EXPECT_EQ(st.request_messages, 1u);
  EXPECT_EQ(st.bytes_copied, 2u * sb);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_evictions, 2u);
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
  EXPECT_EQ(st.exposed_seconds, st.modeled_seconds) << "delivered by its announcer";
}

TEST(DistStoreMaterialized, LruEvictsLeastRecentlyUsed) {
  data::StandardDataset ds = tiny_dataset();
  DistStore store(ds, 4, NetworkModel{}, /*cache_snapshots_per_rank=*/2);
  const auto [lo1, hi1] = store.partition(1);
  ASSERT_GE(hi1 - lo1, 3);
  // The loader protocol: each announced snapshot is consumed by one
  // fetch() (announced-but-unconsumed snapshots are pinned and exempt
  // from eviction, so capacity only bites once batches are consumed).
  const auto touch = [&](std::int64_t id) {
    store.prefetch_batch(0, {id});
    store.fetch(0, id);
  };
  touch(lo1);          // cache: {lo1}
  touch(lo1 + 1);      // cache: {lo1+1, lo1}
  touch(lo1 + 2);      // evicts lo1
  EXPECT_EQ(store.stats().cache_evictions, 1u);
  touch(lo1 + 1);      // still cached -> hit
  EXPECT_EQ(store.stats().cache_hits, 1u);
  touch(lo1);          // evicted -> copied again
  const StoreStats st = store.stats();
  EXPECT_EQ(st.cache_evictions, 2u);
  EXPECT_EQ(st.bytes_copied,
            4u * static_cast<std::uint64_t>(store.snapshot_bytes()));
  EXPECT_EQ(st.remote_bytes, st.bytes_copied + st.cache_hit_bytes);
}

TEST(DistStoreMaterialized, UnannouncedRemoteGetFaultsInAsOwnRequest) {
  data::StandardDataset ds = tiny_dataset();
  DistStore store(ds, 4, NetworkModel{});
  const auto [lo2, hi2] = store.partition(2);
  (void)hi2;
  const auto [x, y] = store.fetch(/*rank=*/0, lo2);  // no prefetch_batch first
  EXPECT_GT(x.numel(), 0);
  EXPECT_GT(y.numel(), 0);
  const StoreStats st = store.stats();
  EXPECT_EQ(st.remote_snapshots, 1u);
  EXPECT_EQ(st.request_messages, 1u);
  EXPECT_EQ(st.bytes_copied, st.remote_bytes);
  EXPECT_EQ(st.exposed_seconds, st.modeled_seconds) << "nothing hid it";
  EXPECT_GT(store.drain_modeled_seconds(0), 0.0);
  EXPECT_EQ(store.drain_modeled_seconds(0), 0.0) << "drain must reset";

  // A resident but unannounced snapshot is still its own priced
  // request; the cache absorbs its bytes.
  store.fetch(0, lo2);
  const StoreStats again = store.stats();
  EXPECT_EQ(again.remote_snapshots, 2u);
  EXPECT_EQ(again.cache_hits, 1u);
  EXPECT_EQ(again.remote_bytes, again.bytes_copied + again.cache_hit_bytes);
}

// ---------------------------------------------------------------- DDP bucket

TEST(GradBucket, AveragesGradientsAcrossRanks) {
  Cluster cluster(4);
  cluster.run([&](Communicator& comm) {
    Variable p(Tensor::zeros({8}), true);
    p.grad().fill_(static_cast<float>(comm.rank()));
    std::vector<Variable> params{p};
    GradBucket bucket(params);
    bucket.allreduce_average(comm, params);
    for (std::int64_t i = 0; i < 8; ++i) ASSERT_NEAR(p.grad().at({i}), 1.5f, 1e-6f);
  });
}

TEST(GradBucket, HandlesMissingGrads) {
  Cluster cluster(2);
  cluster.run([&](Communicator& comm) {
    Variable with(Tensor::zeros({4}), true);
    Variable without(Tensor::zeros({4}), true);
    with.grad().fill_(2.0f);
    std::vector<Variable> params{with, without};
    GradBucket bucket(params);
    EXPECT_EQ(bucket.numel(), 8);
    bucket.allreduce_average(comm, params);
    ASSERT_NEAR(with.grad().at({0}), 2.0f, 1e-6f);
    ASSERT_EQ(without.grad().at({0}), 0.0f);
  });
}

TEST(Ddp, DistributedGradEqualsLargeBatchGrad) {
  // The DDP invariant: averaging per-worker gradients over disjoint
  // half-batches equals the gradient of the full batch.
  Rng rng(77);
  Tensor x_full = Tensor::randn({8, 4}, rng);
  Tensor target = Tensor::randn({8, 2}, rng);
  Tensor w_init = Tensor::randn({4, 2}, rng);

  // Reference: single worker, full batch.
  Variable w_ref(w_init.clone(), true);
  ag::mse_loss(ag::matmul(Variable(x_full, false), w_ref), target).backward();

  // Two workers, half batches each.
  Tensor dist_grad;
  Cluster cluster(2);
  cluster.run([&](Communicator& comm) {
    const std::int64_t lo = comm.rank() * 4;
    Variable w(w_init.clone(), true);
    Tensor xb = x_full.slice(0, lo, 4).clone();
    Tensor yb = target.slice(0, lo, 4).clone();
    ag::mse_loss(ag::matmul(Variable(xb, false), w), yb).backward();
    std::vector<Variable> params{w};
    allreduce_gradients(comm, params);
    if (comm.rank() == 0) dist_grad = w.grad().clone();
  });
  EXPECT_LT(ops::max_abs_diff(dist_grad, w_ref.grad()), 1e-5f);
}

TEST(Ddp, BroadcastParametersSynchronizesReplicas) {
  Cluster cluster(3);
  cluster.run([&](Communicator& comm) {
    Rng rng(static_cast<std::uint64_t>(comm.rank() + 100));
    Variable p(Tensor::randn({16}, rng), true);
    std::vector<Variable> params{p};
    broadcast_parameters(comm, params, 0);
    const double sum = ops::sum(p.value());
    const auto all = comm.allgather(sum);
    for (double v : all) ASSERT_DOUBLE_EQ(v, all[0]);
  });
}

// ----------------------------------------------------------- cluster model

ClusterModelParams pems_like_params() {
  ClusterModelParams p;
  p.train_samples = 73560;
  p.batch_per_worker = 64;
  p.model_parameters = 250000;
  p.sample_bytes = 2 * 12 * 11126 * 2 * 4;
  p.dataset_bytes = static_cast<std::int64_t>(105120) * 11126 * 2 * 4;
  p.epochs = 30;
  p.t_sample = 333.58 * 60.0 / 30.0 / 73560.0;  // Table 4 calibration
  return p;
}

TEST(ClusterModel, DistIndexHasZeroDataComm) {
  ClusterModel model(pems_like_params());
  const ScalingPoint pt = model.evaluate(32, DistStrategy::kDistributedIndex);
  EXPECT_EQ(pt.data_comm_s, 0.0);
  EXPECT_GT(pt.compute_s, 0.0);
}

TEST(ClusterModel, ComputeScalesInverselyWithWorld) {
  ClusterModel model(pems_like_params());
  const double c4 = model.evaluate(4, DistStrategy::kDistributedIndex).compute_s;
  const double c64 = model.evaluate(64, DistStrategy::kDistributedIndex).compute_s;
  EXPECT_NEAR(c4 / c64, 16.0, 1.0);
}

TEST(ClusterModel, DdpSlowerThanDistIndexEverywhere) {
  ClusterModel model(pems_like_params());
  for (int w : {4, 8, 16, 32, 64, 128}) {
    const double ddp = model.evaluate(w, DistStrategy::kBaselineDdp).total_s();
    const double idx = model.evaluate(w, DistStrategy::kDistributedIndex).total_s();
    EXPECT_GT(ddp, idx) << "w=" << w;
  }
}

TEST(ClusterModel, SpeedupGapWidensWithScale) {
  // Paper: 2.16x at 4 GPUs -> 11.78x at 128 GPUs.
  ClusterModel model(pems_like_params());
  const double r4 = model.evaluate(4, DistStrategy::kBaselineDdp).total_s() /
                    model.evaluate(4, DistStrategy::kDistributedIndex).total_s();
  const double r128 = model.evaluate(128, DistStrategy::kBaselineDdp).total_s() /
                      model.evaluate(128, DistStrategy::kDistributedIndex).total_s();
  EXPECT_GT(r128, r4);
}

TEST(ClusterModel, GeneralizedIndexMovesLessDataThanDdp) {
  ClusterModel model(pems_like_params());
  for (int w : {4, 32, 128}) {
    EXPECT_LT(model.evaluate(w, DistStrategy::kGeneralizedIndex).data_comm_s,
              model.evaluate(w, DistStrategy::kBaselineDdpBatchShuffle).data_comm_s)
        << "w=" << w;
  }
}

TEST(ClusterModel, IndexPreprocessConstantDdpGrows) {
  ClusterModel model(pems_like_params());
  EXPECT_EQ(model.evaluate(4, DistStrategy::kDistributedIndex).preprocess_s,
            model.evaluate(128, DistStrategy::kDistributedIndex).preprocess_s);
  EXPECT_GT(model.evaluate(128, DistStrategy::kBaselineDdp).preprocess_s,
            model.evaluate(4, DistStrategy::kBaselineDdp).preprocess_s);
}

TEST(ClusterModel, StrongScalingSublinearAtHighWorld) {
  // Fixed costs erode efficiency at 128 GPUs (paper §5.3.1).
  ClusterModel model(pems_like_params());
  const double t1 = model.evaluate(1, DistStrategy::kDistributedIndex).total_s();
  const double t128 = model.evaluate(128, DistStrategy::kDistributedIndex).total_s();
  const double speedup = t1 / t128;
  EXPECT_GT(speedup, 40.0);
  EXPECT_LT(speedup, 128.0);
}

}  // namespace
}  // namespace pgti::dist
