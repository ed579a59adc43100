// The transport seam: the same algorithm layer (dist/algorithms.h)
// must produce bit-identical collectives, identical traffic ledgers,
// and identical failure semantics whether the wire is the in-process
// mailbox hub or a real TCP mesh of SocketTransport endpoints — and
// DistTrainer::run_rank over sockets must reproduce DistTrainer::run
// loss-for-loss, byte for byte.
//
// This suite matches the ^dist_ sanitizer regex in scripts/check.sh,
// so everything here (including the SimClock charge hammer and the
// socket fault sweeps) also runs under TSan and ASan.

#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/dist_trainer.h"
#include "data/dataset_spec.h"
#include "dist/comm.h"
#include "dist/transport_inprocess.h"
#include "dist/transport_socket.h"
#include "runtime/thread_pool.h"

namespace pgti::dist {
namespace {

/// Adversarial payload: mixed magnitudes so any deviation from the
/// strict rank-ordered accumulation shows up in the low bits.
std::vector<float> rank_payload(int rank, std::int64_t n) {
  std::mt19937 rng(static_cast<unsigned>(911 + 31 * rank));
  std::normal_distribution<float> normal(0.0f, 1.0f);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = normal(rng) * (i % 2 == 0 ? 1e6f : 1e-3f);
  }
  return v;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// One mixed collective script; returns rank 0's view of every result
/// so two harnesses can be compared bit for bit.
struct ScriptResult {
  std::vector<float> reduced;
  std::vector<float> averaged;
  std::vector<float> bcast;
  double scalar = 0.0;
  std::vector<double> gathered;
};

template <typename ClusterT>
ScriptResult run_script(ClusterT& cluster, std::int64_t n) {
  const int w = cluster.world();
  ScriptResult out;
  std::vector<ScriptResult> per_rank(static_cast<std::size_t>(w));
  cluster.run([&](Communicator& comm) {
    const int r = comm.rank();
    ScriptResult mine;
    mine.reduced = rank_payload(r, n);
    comm.allreduce_sum(mine.reduced.data(), n);
    mine.averaged = rank_payload(r + 100, n);
    comm.allreduce_mean(mine.averaged.data(), n);
    mine.bcast = r == 1 % w ? rank_payload(7, n)
                            : std::vector<float>(static_cast<std::size_t>(n), 0.0f);
    comm.broadcast(mine.bcast.data(), n, /*root=*/1 % w);
    mine.scalar = comm.allreduce_scalar_sum(0.1 + r);
    mine.gathered = comm.allgather(static_cast<double>(r) * 1.5 - 0.25);
    comm.barrier();
    per_rank[static_cast<std::size_t>(r)] = std::move(mine);
  });
  // Every rank must hold identical bits; return rank 0's.
  for (int r = 1; r < w; ++r) {
    const auto& mine = per_rank[static_cast<std::size_t>(r)];
    EXPECT_TRUE(bits_equal(mine.reduced, per_rank[0].reduced)) << "rank " << r;
    EXPECT_TRUE(bits_equal(mine.averaged, per_rank[0].averaged)) << "rank " << r;
    EXPECT_TRUE(bits_equal(mine.bcast, per_rank[0].bcast)) << "rank " << r;
    EXPECT_EQ(mine.scalar, per_rank[0].scalar) << "rank " << r;
    EXPECT_EQ(mine.gathered, per_rank[0].gathered) << "rank " << r;
  }
  out = std::move(per_rank[0]);
  return out;
}

// ------------------------------------------------- bit-identity

TEST(SocketCollectives, BitIdenticalToInProcessAcrossWorldsAndSizes) {
  // n sweeps past world (empty trailing chunks), equal, and large.
  for (int w : {1, 2, 3, 5}) {
    for (std::int64_t n : {std::int64_t{0}, std::int64_t{3}, std::int64_t{97},
                           std::int64_t{1024}}) {
      Cluster inproc(w);
      SocketCluster socket(w);
      const ScriptResult a = run_script(inproc, n);
      const ScriptResult b = run_script(socket, n);
      EXPECT_TRUE(bits_equal(a.reduced, b.reduced)) << "w=" << w << " n=" << n;
      EXPECT_TRUE(bits_equal(a.averaged, b.averaged)) << "w=" << w << " n=" << n;
      EXPECT_TRUE(bits_equal(a.bcast, b.bcast)) << "w=" << w << " n=" << n;
      EXPECT_EQ(a.scalar, b.scalar) << "w=" << w << " n=" << n;
      EXPECT_EQ(a.gathered, b.gathered) << "w=" << w << " n=" << n;
    }
  }
}

TEST(SocketCollectives, AllreduceMatchesFlatRankOrderedReference) {
  const int w = 4;
  const std::int64_t n = 257;  // non-divisible => ragged last chunk
  std::vector<float> expect(static_cast<std::size_t>(n), 0.0f);
  for (int r = 0; r < w; ++r) {
    const std::vector<float> p = rank_payload(r, n);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      expect[i] = r == 0 ? p[i] : expect[i] + p[i];
    }
  }
  SocketCluster cluster(w);
  cluster.run([&](Communicator& comm) {
    std::vector<float> mine = rank_payload(comm.rank(), n);
    comm.allreduce_sum(mine.data(), n);
    EXPECT_TRUE(bits_equal(mine, expect)) << "rank " << comm.rank();
  });
}

// ------------------------------------------------- stats parity

TEST(SocketCollectives, TrafficLedgerMatchesInProcessFieldForField) {
  const int w = 3;
  const std::int64_t n = 64;
  Cluster inproc(w);
  SocketCluster socket(w);
  run_script(inproc, n);
  run_script(socket, n);
  const CommStats a = inproc.stats();
  const CommStats b = socket.stats();
  EXPECT_EQ(a.allreduce_count, b.allreduce_count);
  EXPECT_EQ(a.allreduce_bytes, b.allreduce_bytes);
  EXPECT_EQ(a.broadcast_count, b.broadcast_count);
  EXPECT_EQ(a.broadcast_bytes, b.broadcast_bytes);
  EXPECT_EQ(a.allgather_count, b.allgather_count);
  EXPECT_EQ(a.allgather_bytes, b.allgather_bytes);
  EXPECT_EQ(a.barrier_count, b.barrier_count);
  EXPECT_EQ(a.barrier_bytes, b.barrier_bytes);
  // The new satellite fields count symmetrically with the old ones:
  // one allgather moves each rank's double to the other w-1 ranks; one
  // barrier moves 2(w-1) control frames of frame::kHeaderBytes.
  EXPECT_EQ(a.allgather_bytes,
            sizeof(double) * static_cast<std::uint64_t>(w) *
                static_cast<std::uint64_t>(w - 1));
  EXPECT_EQ(a.barrier_bytes, 2u * static_cast<std::uint64_t>(w - 1) *
                                 frame::kHeaderBytes);
  EXPECT_EQ(a.allgather_count, 1u);
  EXPECT_EQ(a.barrier_count, 1u);
}

TEST(DistResultSurface, CarriesAllgatherAndBarrierTraffic) {
  // DistTrainer allgathers the step count and barriers every epoch, so
  // a real run must surface nonzero satellite traffic through
  // DistResult::comm.
  core::DistConfig cfg;
  cfg.spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  cfg.spec.horizon = 4;
  cfg.spec.batch_size = 8;
  cfg.mode = core::DistMode::kDistributedIndex;
  cfg.world = 2;
  cfg.epochs = 1;
  cfg.hidden_dim = 8;
  cfg.diffusion_steps = 1;
  cfg.max_batches_per_epoch = 1;
  cfg.max_val_batches = 1;
  cfg.seed = 7;
  const core::DistResult r = core::DistTrainer(cfg).run();
  EXPECT_GT(r.comm.allgather_count, 0u);
  EXPECT_EQ(r.comm.allgather_bytes,
            r.comm.allgather_count * sizeof(double) * 2u * 1u);
  EXPECT_GT(r.comm.barrier_count, 0u);
  EXPECT_EQ(r.comm.barrier_bytes,
            r.comm.barrier_count * 2u * frame::kHeaderBytes);
}

// ------------------------------------------------- failure semantics

/// Sweeps an injected fault over every sync point of one collective
/// script on the socket backend: rank w-1 throws at its nth sync
/// entry; no survivor may complete the collective, every survivor must
/// unwind (PeerFailureError, absorbed by the harness), and run() must
/// rethrow the ORIGINAL error — never hang a socket read.
template <typename Fn>
void sweep_socket_faults(int w, int sync_points, const char* what, Fn&& body) {
  for (int nth = 0; nth < sync_points; ++nth) {
    SocketCluster cluster(w);
    cluster.inject_fault_at_sync_point(w - 1, static_cast<std::uint64_t>(nth),
                                       "socket fault");
    try {
      cluster.run([&](Communicator& comm) {
        body(comm);
        if (comm.rank() == w - 1) {
          ADD_FAILURE() << what << ": faulted rank completed, w=" << w
                        << " nth=" << nth;
        }
      });
      FAIL() << what << ": expected fault to propagate, w=" << w
             << " nth=" << nth;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "socket fault") << what << " w=" << w
                                             << " nth=" << nth;
    }
  }
}

TEST(SocketFailure, PeersReleasedAtEverySyncPointOfEveryCollective) {
  const std::int64_t n = 96;
  for (int w : {2, 3, 4}) {
    sweep_socket_faults(w, alg::allreduce_sync_points(w), "allreduce",
                        [n](Communicator& comm) {
                          std::vector<float> v = rank_payload(comm.rank(), n);
                          comm.allreduce_sum(v.data(), n);
                        });
    sweep_socket_faults(w, alg::broadcast_sync_points(w), "broadcast",
                        [n](Communicator& comm) {
                          std::vector<float> v = rank_payload(0, n);
                          comm.broadcast(v.data(), n, /*root=*/0);
                        });
    sweep_socket_faults(w, alg::kScalarSumSyncPoints, "scalar_sum",
                        [](Communicator& comm) {
                          comm.allreduce_scalar_sum(1.0 + comm.rank());
                        });
    sweep_socket_faults(w, alg::kAllgatherSyncPoints, "allgather",
                        [](Communicator& comm) {
                          comm.allgather(static_cast<double>(comm.rank()));
                        });
    sweep_socket_faults(w, alg::kBarrierSyncPoints, "barrier",
                        [](Communicator& comm) { comm.barrier(); });
  }
}

TEST(SocketFailure, DeathBetweenCollectivesReleasesPeersAndRethrowsOriginal) {
  const int w = 4;
  SocketCluster cluster(w);
  try {
    cluster.run([&](Communicator& comm) {
      float v = 1.0f;
      comm.allreduce_sum(&v, 1);
      if (comm.rank() == 2) throw std::logic_error("oom in rank 2");
      for (int i = 0; i < 50; ++i) comm.allreduce_sum(&v, 1);
      ADD_FAILURE() << "survivor completed past a dead peer";
    });
    FAIL() << "expected the worker error to propagate";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "oom in rank 2");
  }
}

// ------------------------------------------------- the one fault hook

/// Cluster and SocketCluster run the one rank loop, and every wire
/// counts its sync points in the Transport base, so arming, disarming
/// and re-arming a fault must behave the same over mailboxes and over
/// loopback TCP.
template <typename ClusterT>
class InjectedFault : public ::testing::Test {};
using RankHarnesses = ::testing::Types<Cluster, SocketCluster>;
TYPED_TEST_SUITE(InjectedFault, RankHarnesses);

TYPED_TEST(InjectedFault, IsOneShotAcrossRunsAndRearmsAtTheSameCollective) {
  const int w = 3;
  TypeParam cluster(w);
  // Three collectives: a barrier (sync point 0), an all-reduce (points
  // 1 .. allreduce_sync_points(w)) and another barrier.  `completed`
  // counts the collectives each rank finished in the latest run.
  std::vector<int> completed(static_cast<std::size_t>(w), 0);
  const auto job = [&](Communicator& comm) {
    int& done = completed[static_cast<std::size_t>(comm.rank())];
    done = 0;
    comm.barrier();
    ++done;
    float v = static_cast<float>(comm.rank());
    comm.allreduce_sum(&v, 1);
    EXPECT_EQ(v, 3.0f);
    ++done;
    comm.barrier();
    ++done;
  };
  const auto expect_fault = [&](const char* message) {
    try {
      cluster.run(job);
      ADD_FAILURE() << "expected the injected fault '" << message << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), message);
    }
    // The faulted rank died inside the all-reduce, after the barrier.
    EXPECT_EQ(completed[static_cast<std::size_t>(w - 1)], 1);
  };
  const std::uint64_t in_allreduce = 2;
  cluster.inject_fault_at_sync_point(w - 1, in_allreduce, "first fault");
  expect_fault("first fault");

  // The failed run disarmed the fault: the reused cluster recovers.
  cluster.run(job);
  EXPECT_EQ(completed, std::vector<int>(static_cast<std::size_t>(w), 3));

  // Every run builds fresh endpoints whose sync counters start at 0, so
  // arming the same point again fails the next run at the same
  // collective.
  cluster.inject_fault_at_sync_point(w - 1, in_allreduce, "re-armed fault");
  expect_fault("re-armed fault");
}

// ------------------------------------------------- framing contract

TEST(Framing, HeaderLayoutIsPinned) {
  EXPECT_EQ(frame::kHeaderBytes, 16u);
  frame::Header h{frame::kMagic, static_cast<std::uint16_t>(frame::Type::kData),
                  3, 42};
  char buf[16];
  std::memcpy(buf, &h, sizeof(h));
  std::uint32_t magic;
  std::memcpy(&magic, buf, 4);
  EXPECT_EQ(magic, frame::kMagic);
}

TEST(Framing, InProcessLengthMismatchIsProtocolError) {
  InProcessHub hub(2);
  InProcessTransport a(hub, 0);
  InProcessTransport b(hub, 1);
  const float payload = 1.0f;
  a.send(1, &payload, sizeof(payload));
  double wrong;
  EXPECT_THROW(b.recv(0, &wrong, sizeof(wrong)), TransportError);
}

TEST(Framing, SocketLengthMismatchIsProtocolError) {
  auto [listen_fd, port] = socket_listen("127.0.0.1", 0, 2);
  std::thread sender([&] {
    SocketOptions opt;
    opt.rank = 0;
    opt.world = 2;
    opt.listen_fd = listen_fd;
    SocketTransport t(opt);
    const float payload = 2.0f;
    t.send(1, &payload, sizeof(payload));
    // Keep the endpoint alive until the receiver read the bad frame.
    char ok = 0;
    t.recv(1, &ok, 1);
  });
  SocketOptions opt;
  opt.rank = 1;
  opt.world = 2;
  opt.port = port;
  SocketTransport t(opt);
  double wrong;
  EXPECT_THROW(t.recv(0, &wrong, sizeof(wrong)), TransportError);
  const char ok = 1;
  t.send(0, &ok, 1);
  sender.join();
}

// ------------------------------------------------- SimClock thread-safety

TEST(SimClockSafety, ConcurrentChargesFromRanksAndMainAreExact) {
  // charge_seconds is documented lock-free-atomic (runtime/timer.h);
  // this hammer runs under TSan via scripts/check.sh.  Increments are
  // dyadic rationals, so the expected total is exact in any order.
  const int w = 8;
  const int per_rank = 2000;
  Cluster cluster(w);
  std::thread outsider;
  cluster.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      // Main-thread-style charger racing the rank workers, as the
      // DistStore prefetch plumbing does.
      outsider = std::thread([&cluster] {
        for (int i = 0; i < per_rank; ++i) cluster.charge_seconds(0.25);
      });
    }
    comm.barrier();
    for (int i = 0; i < per_rank; ++i) comm.charge_seconds(0.5);
  });
  outsider.join();
  EXPECT_EQ(cluster.modeled_comm_seconds(),
            w * per_rank * 0.5 + per_rank * 0.25);
}

// ------------------------------------------------- trainer parity

core::DistConfig socket_cfg(core::DistMode mode, int world, int depth) {
  core::DistConfig cfg;
  cfg.spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  cfg.spec.horizon = 4;
  cfg.spec.batch_size = 8;
  cfg.mode = mode;
  cfg.world = world;
  cfg.epochs = 2;
  cfg.hidden_dim = 8;
  cfg.diffusion_steps = 1;
  cfg.max_batches_per_epoch = 2;
  cfg.max_val_batches = 1;
  cfg.seed = 53;
  cfg.prefetch_depth = depth;
  return cfg;
}

core::DistResult run_over_sockets(const core::DistConfig& cfg) {
  SocketCluster cluster(cfg.world);
  core::DistResult rank0;
  std::mutex mu;
  cluster.run([&](Communicator& comm) {
    core::DistTrainer trainer(cfg);
    core::DistResult r = trainer.run_rank(comm);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      rank0 = std::move(r);
    }
  });
  return rank0;
}

TEST(SocketTrainer, RunRankMatchesInProcessLossesBitForBit) {
  // The acceptance bar of the transport swap: the same job over a real
  // TCP mesh must reproduce every loss byte of the in-process path,
  // for both index strategies and prefetch depths {0, 2}.
  for (core::DistMode mode :
       {core::DistMode::kDistributedIndex, core::DistMode::kGeneralizedIndex}) {
    for (int depth : {0, 2}) {
      const core::DistConfig cfg = socket_cfg(mode, /*world=*/2, depth);
      const core::DistResult inproc = core::DistTrainer(cfg).run();
      const core::DistResult socket = run_over_sockets(cfg);
      ASSERT_EQ(socket.curve.size(), inproc.curve.size());
      for (std::size_t e = 0; e < inproc.curve.size(); ++e) {
        EXPECT_EQ(std::memcmp(&socket.curve[e].train_mae,
                              &inproc.curve[e].train_mae, sizeof(double)),
                  0)
            << "mode=" << static_cast<int>(mode) << " depth=" << depth
            << " epoch=" << e;
        EXPECT_EQ(std::memcmp(&socket.curve[e].val_mae,
                              &inproc.curve[e].val_mae, sizeof(double)),
                  0)
            << "mode=" << static_cast<int>(mode) << " depth=" << depth
            << " epoch=" << e;
      }
      // Traffic is charged by rank 0 either way, so the ledgers agree.
      EXPECT_EQ(socket.comm.allreduce_count, inproc.comm.allreduce_count);
      EXPECT_EQ(socket.comm.allreduce_bytes, inproc.comm.allreduce_bytes);
      EXPECT_EQ(socket.comm.broadcast_bytes, inproc.comm.broadcast_bytes);
    }
  }
}

TEST(PoolShareTrainer, SplitPoolMatchesFullWidthLossesBitForBit) {
  // DistTrainer::run gives each of W in-process ranks a share of the
  // kernel pool (1 thread each at W = 4 on 4 threads); forking every
  // rank's loops to the full pool width must not move a loss byte.
  for (core::DistMode mode :
       {core::DistMode::kDistributedIndex, core::DistMode::kGeneralizedIndex}) {
    for (int depth : {0, 2}) {
      const core::DistConfig cfg = socket_cfg(mode, /*world=*/4, depth);
      const core::DistResult split = core::DistTrainer(cfg).run();
      core::DistResult full;
      Cluster(cfg.world).run([&](Communicator& comm) {
        PoolShare full_width(ThreadPool::global().size());
        core::DistResult r = core::DistTrainer(cfg).run_rank(comm);
        if (comm.rank() == 0) full = std::move(r);
      });
      ASSERT_EQ(full.curve.size(), split.curve.size());
      for (std::size_t e = 0; e < split.curve.size(); ++e) {
        EXPECT_EQ(std::memcmp(&full.curve[e].train_mae, &split.curve[e].train_mae,
                              sizeof(double)),
                  0)
            << "mode=" << static_cast<int>(mode) << " depth=" << depth
            << " epoch=" << e;
        EXPECT_EQ(std::memcmp(&full.curve[e].val_mae, &split.curve[e].val_mae,
                              sizeof(double)),
                  0)
            << "mode=" << static_cast<int>(mode) << " depth=" << depth
            << " epoch=" << e;
      }
    }
  }
}

TEST(SocketTrainer, StrictOverlapCommThreadDrivesSocketCollectives) {
  // OverlappedGradBucket's per-rank comm thread must be able to issue
  // its ready-bucket all-reduces through a SocketTransport endpoint
  // (one collective thread per rank at a time — the drain/flush chain
  // orders the handoff) and still match the serial path bit for bit.
  core::DistConfig cfg =
      socket_cfg(core::DistMode::kDistributedIndex, /*world=*/2, /*depth=*/0);
  cfg.grad_overlap = core::GradOverlap::kOff;
  const core::DistResult off = run_over_sockets(cfg);
  cfg.grad_overlap = core::GradOverlap::kStrict;
  const core::DistResult strict = run_over_sockets(cfg);
  ASSERT_EQ(strict.curve.size(), off.curve.size());
  for (std::size_t e = 0; e < off.curve.size(); ++e) {
    EXPECT_EQ(strict.curve[e].train_mae, off.curve[e].train_mae) << e;
    EXPECT_EQ(strict.curve[e].val_mae, off.curve[e].val_mae) << e;
  }
}

TEST(SocketTrainer, StoreBackedModesAreRejected) {
  const core::DistConfig cfg = socket_cfg(core::DistMode::kBaselineDdp, 2, 0);
  EXPECT_THROW(run_over_sockets(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pgti::dist
