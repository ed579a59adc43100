// Determinism guarantees of the dist subsystem, beyond the functional
// coverage in dist_test.cpp:
//
//  * The tree all-reduce is bit-exact across repeated runs and across
//    thread schedules, and bit-identical to the flat rank-ordered
//    reference, for world sizes 1..9 (non-powers-of-two included) —
//    the property that makes W-worker training reproduce single-worker
//    training (paper §5.3).
//  * A worker that dies mid-collective releases its peers with
//    PeerFailureError from EVERY internal sync point of the staged
//    tree all-reduce, not just the first.
//  * The fetch model never prices a remote fetch when every rank touches
//    only its own partition — the access pattern generalized-distributed-
//    index-batching (paper §5.4) guarantees by construction.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dist/comm.h"
#include "dist/fetch_model.h"
#include "runtime/rng.h"

namespace pgti::dist {
namespace {

// Adversarial float values: large magnitude spread, so accumulation
// order visibly changes the low-order bits if it is ever unordered.
std::vector<float> rank_payload(int rank, std::size_t n) {
  Rng rng(static_cast<std::uint64_t>(rank) * 1315423911ULL + 7);
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(rng.normal()) *
              (i % 2 == 0 ? 1e6f : 1e-3f);
  }
  return data;
}

std::vector<std::vector<float>> run_allreduce_once(int world, std::size_t n) {
  Cluster cluster(world);
  std::vector<std::vector<float>> results(static_cast<std::size_t>(world));
  cluster.run([&](Communicator& comm) {
    std::vector<float> data =
        rank_payload(comm.rank(), n);
    // Repeated collectives on evolving data catch schedule-dependent
    // accumulation, not just single-shot luck.
    for (int iter = 0; iter < 5; ++iter) comm.allreduce_sum(data.data(), static_cast<std::int64_t>(n));
    results[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  return results;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class DeterminismWorlds : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismWorlds, AllreduceBitExactAcrossRepeatedRuns) {
  const int w = GetParam();
  const std::size_t n = 512;
  const auto first = run_allreduce_once(w, n);
  for (int rep = 0; rep < 4; ++rep) {
    const auto again = run_allreduce_once(w, n);
    for (int r = 0; r < w; ++r) {
      EXPECT_TRUE(bit_identical(first[static_cast<std::size_t>(r)],
                                again[static_cast<std::size_t>(r)]))
          << "run " << rep << ", rank " << r;
    }
  }
}

TEST_P(DeterminismWorlds, AllRanksAgreeBitwiseWithOrderedReference) {
  const int w = GetParam();
  const std::size_t n = 256;
  // Rank-ordered sequential reference: what the collective contract
  // promises every rank computes.
  std::vector<float> expected = rank_payload(0, n);
  for (int r = 1; r < w; ++r) {
    const std::vector<float> other = rank_payload(r, n);
    for (std::size_t i = 0; i < n; ++i) expected[i] += other[i];
  }

  Cluster cluster(w);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data = rank_payload(comm.rank(), n);
    comm.allreduce_sum(data.data(), static_cast<std::int64_t>(n));
    ASSERT_TRUE(bit_identical(data, expected)) << "rank " << comm.rank();
  });
}

TEST_P(DeterminismWorlds, ScalarSumAndAllgatherAreRunInvariant) {
  const int w = GetParam();
  double first_sum = 0.0;
  std::vector<double> first_gather;
  for (int rep = 0; rep < 3; ++rep) {
    Cluster cluster(w);
    double sum = 0.0;
    std::vector<double> gather;
    cluster.run([&](Communicator& comm) {
      Rng rng(static_cast<std::uint64_t>(comm.rank()) + 13);
      const double mine = rng.normal() * 1e8;
      const double total = comm.allreduce_scalar_sum(mine);
      const auto all = comm.allgather(mine);
      if (comm.rank() == 0) {
        sum = total;
        gather = all;
      }
    });
    if (rep == 0) {
      first_sum = sum;
      first_gather = gather;
    } else {
      EXPECT_EQ(sum, first_sum);
      EXPECT_EQ(gather, first_gather);
    }
  }
}

// 1..9 covers one rank, powers of two, and the non-power-of-two world
// sizes (3, 5, 6, 7, 9) where a sloppy tree schedule would change
// accumulation order.
INSTANTIATE_TEST_SUITE_P(Worlds, DeterminismWorlds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9));

// ------------------------------------------------------ tree failure depth

TEST(TreeFailure, PeersReleasedAtEveryTreeDepth) {
  // The staged all-reduce passes through allreduce_sync_points(w)
  // internal sync points (scratch sizing, input staging, one per tree
  // stage, final gather).  The injected fault makes the last rank die
  // upon ENTERING sync point `depth`, leaving its peers blocked at
  // exactly that depth inside the tree reduction.  They must unwind
  // via PeerFailureError at every depth, and run() must always rethrow
  // the original (injected) error.
  for (int w : {2, 3, 5, 8}) {
    const int points = alg::allreduce_sync_points(w);
    ASSERT_GE(points, 4) << "w=" << w;
    for (int depth = 0; depth < points; ++depth) {
      Cluster cluster(w);
      cluster.inject_fault_at_sync_point(w - 1, static_cast<std::uint64_t>(depth),
                                         "fault injection");
      try {
        cluster.run([&](Communicator& comm) {
          std::vector<float> data(64, static_cast<float>(comm.rank()));
          comm.allreduce_sum(data.data(), 64);
          ADD_FAILURE() << "rank " << comm.rank()
                        << " completed the collective past a dead peer (w=" << w
                        << ", depth=" << depth << ")";
        });
        FAIL() << "expected the original error (w=" << w << ", depth=" << depth
               << ")";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "fault injection")
            << "w=" << w << ", depth=" << depth;
      }
    }
  }
}

TEST(TreeFailure, DeathBetweenCollectivesStillReleasesDeepStages) {
  // A rank that dies after k complete all-reduces while peers are in
  // collective k+1: peers sit at an arbitrary tree stage of a LATER
  // collective and must still unwind.
  for (int w : {3, 4, 7}) {
    Cluster cluster(w);
    try {
      cluster.run([&](Communicator& comm) {
        std::vector<float> data(32, 1.0f);
        for (int k = 0;; ++k) {
          if (k == 3 && comm.rank() == w - 1) {
            throw std::runtime_error("died between collectives");
          }
          comm.allreduce_sum(data.data(), 32);
        }
      });
      FAIL() << "expected the original error (w=" << w << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "died between collectives") << "w=" << w;
    }
  }
}

// ---------------------------------------------------------------- store

TEST(FetchModelLocality, PartitionLocalAccessNeverFetches) {
  // Generalized-index access pattern: every rank reads only snapshots
  // it owns.  The price must show zero remote traffic and zero
  // modeled seconds.
  const std::int64_t snapshots = 1000;
  const int world = 4;
  FetchModel model(snapshots, 4096, world, NetworkModel{});
  for (int rank = 0; rank < world; ++rank) {
    const auto [lo, hi] = model.partition(rank);
    std::vector<std::int64_t> batch;
    for (std::int64_t s = lo; s < hi; s += 7) batch.push_back(s);
    const FetchModel::Price p = model.price(rank, batch);
    EXPECT_EQ(p.seconds, 0.0) << "rank " << rank;
    EXPECT_EQ(p.remote, 0u) << "rank " << rank;
    EXPECT_EQ(p.bytes, 0u) << "rank " << rank;
    EXPECT_EQ(p.messages, 0u) << "rank " << rank;
    EXPECT_EQ(p.local, batch.size()) << "rank " << rank;
  }
}

TEST(FetchModelLocality, PartitionsTileTheStoreExactly) {
  const std::int64_t snapshots = 997;  // prime: uneven tail chunk
  const int world = 8;
  FetchModel model(snapshots, 128, world, NetworkModel{});
  std::int64_t covered = 0;
  for (int rank = 0; rank < world; ++rank) {
    const auto [lo, hi] = model.partition(rank);
    EXPECT_EQ(lo, covered);
    for (std::int64_t s = lo; s < hi; ++s) EXPECT_EQ(model.owner(s), rank);
    covered = hi;
  }
  EXPECT_EQ(covered, snapshots);
}

}  // namespace
}  // namespace pgti::dist
