// Ready-bucket gradient overlap (dist/overlap.h): grad-ready hooks in
// backward(), strict-mode bit-exactness against the serial GradBucket
// path, bounded-staleness convergence, mid-backward fault unwinding,
// and the exposed-seconds bench claim at trainer level.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "autograd/ops.h"
#include "core/dist_trainer.h"
#include "data/dataset_spec.h"
#include "dist/cluster_model.h"
#include "dist/comm.h"
#include "dist/ddp.h"
#include "dist/overlap.h"
#include "runtime/rng.h"

namespace pgti::dist {
namespace {

// ----------------------------------------------------- grad-ready hooks

class RecordingObserver final : public GradReadyObserver {
 public:
  void on_backward_start(const std::vector<Variable::Impl*>& leaves) override {
    start_leaves = leaves;
  }
  void on_grad_ready(const Variable::Impl* leaf) override {
    ready_order.push_back(leaf);
    grads_at_fire.push_back(leaf->grad.clone());
  }

  std::vector<Variable::Impl*> start_leaves;
  std::vector<const Variable::Impl*> ready_order;
  std::vector<Tensor> grads_at_fire;
};

// Two-layer graph where w1 feeds TWO consumers (the matmul and a skip
// connection), so a naive fire-on-first-touch would announce w1 early
// with a partial gradient.
Variable two_consumer_loss(Variable& w1, Variable& w2, const Tensor& x,
                           const Tensor& target) {
  Variable h = ag::relu(ag::matmul(Variable(x, false), w1));
  Variable skip = ag::mul_scalar(ag::sum_all(w1), 1e-3f);
  Variable out = ag::matmul(h, w2);
  return ag::add(ag::mse_loss(out, target), skip);
}

TEST(GradReady, FiresOncePerParamWithFinalGradInDeterministicOrder) {
  Rng rng(31);
  Tensor x = Tensor::randn({6, 4}, rng);
  Tensor target = Tensor::randn({6, 3}, rng);
  Variable w1(Tensor::randn({4, 5}, rng), true);
  Variable w2(Tensor::randn({5, 3}, rng), true);

  RecordingObserver obs;
  two_consumer_loss(w1, w2, x, target).backward(&obs);

  // Both params announced at start, and each fires exactly once.
  ASSERT_EQ(obs.start_leaves.size(), 2u);
  ASSERT_EQ(obs.ready_order.size(), 2u);
  EXPECT_NE(obs.ready_order[0], obs.ready_order[1]);
  for (const Variable::Impl* leaf : obs.ready_order) {
    EXPECT_TRUE(leaf == w1.impl().get() || leaf == w2.impl().get());
  }

  // The gradient captured at fire time is the FINAL one: it must match
  // the post-backward gradient bit for bit (w1 has two consumers, so an
  // early fire would be caught here).
  for (std::size_t i = 0; i < obs.ready_order.size(); ++i) {
    const Tensor& final_grad = obs.ready_order[i] == w1.impl().get()
                                   ? w1.grad()
                                   : w2.grad();
    ASSERT_EQ(obs.grads_at_fire[i].numel(), final_grad.numel());
    EXPECT_EQ(std::memcmp(obs.grads_at_fire[i].data(), final_grad.data(),
                          static_cast<std::size_t>(final_grad.numel()) *
                              sizeof(float)),
              0)
        << "leaf " << i << " fired before its last accumulation";
  }

  // Ready order is a pure function of the tape: a second identical
  // sweep observes the identical sequence.
  RecordingObserver obs2;
  w1.zero_grad();
  w2.zero_grad();
  two_consumer_loss(w1, w2, x, target).backward(&obs2);
  EXPECT_EQ(obs2.ready_order, obs.ready_order);
}

TEST(GradReady, NonParticipatingParamNeverFires) {
  Rng rng(32);
  Tensor x = Tensor::randn({4, 4}, rng);
  Tensor target = Tensor::randn({4, 3}, rng);
  Variable w1(Tensor::randn({4, 5}, rng), true);
  Variable w2(Tensor::randn({5, 3}, rng), true);
  Variable unused(Tensor::randn({7}, rng), true);

  RecordingObserver obs;
  two_consumer_loss(w1, w2, x, target).backward(&obs);

  for (const Variable::Impl* leaf : obs.start_leaves) {
    EXPECT_NE(leaf, unused.impl().get());
  }
  for (const Variable::Impl* leaf : obs.ready_order) {
    EXPECT_NE(leaf, unused.impl().get());
  }
}

// ------------------------------------------- strict-mode bit-exactness

// One rank's training micro-step: per-rank data, shared init.
struct RankProblem {
  Tensor x, target;
  std::vector<Variable> params;  // w1, w2

  RankProblem(int rank, int step) {
    Rng data_rng(1000ULL * static_cast<std::uint64_t>(rank + 1) +
                 static_cast<std::uint64_t>(step));
    x = Tensor::randn({6, 4}, data_rng);
    target = Tensor::randn({6, 3}, data_rng);
    Rng init_rng(5);  // identical replicas
    params.emplace_back(Tensor::randn({4, 5}, init_rng), true);
    params.emplace_back(Tensor::randn({5, 3}, init_rng), true);
  }

  Variable loss() {
    return two_consumer_loss(params[0], params[1], x, target);
  }
};

TEST(OverlappedBucket, StrictBitExactVsSerialGradBucket) {
  constexpr int kWorld = 4;
  constexpr int kSteps = 3;
  // Tiny bucket cap -> every param is its own bucket, so the ready
  // order genuinely drives multiple independent collectives per step.
  constexpr std::int64_t kBucketNumel = 8;

  // Serial reference: monolithic post-backward GradBucket sync.
  std::array<std::vector<Tensor>, kWorld> serial;  // [rank][param] grads
  {
    Cluster cluster(kWorld);
    cluster.run([&](Communicator& comm) {
      for (int step = 0; step < kSteps; ++step) {
        RankProblem prob(comm.rank(), step);
        prob.loss().backward();
        GradBucket bucket(prob.params, kBucketNumel);
        bucket.allreduce_average(comm, prob.params);
        if (step == kSteps - 1) {
          for (Variable& p : prob.params) {
            serial[static_cast<std::size_t>(comm.rank())].push_back(
                p.grad().clone());
          }
        }
      }
    });
  }

  // Overlapped strict path: identical per-rank data, ready-bucket
  // all-reduces under backward, drained before reading the grads.
  std::array<std::vector<Tensor>, kWorld> overlapped;
  {
    Cluster cluster(kWorld);
    cluster.run([&](Communicator& comm) {
      for (int step = 0; step < kSteps; ++step) {
        RankProblem prob(comm.rank(), step);
        OverlappedGradBucket ob(comm, prob.params,
                                OverlappedGradBucket::Mode::kStrict,
                                NetworkModel{}, kBucketNumel);
        EXPECT_GE(ob.bucket_count(), 2u);
        prob.loss().backward(&ob);
        ob.drain();
        ob.finish();
        if (step == kSteps - 1) {
          for (Variable& p : prob.params) {
            overlapped[static_cast<std::size_t>(comm.rank())].push_back(
                p.grad().clone());
          }
        }
      }
    });
  }

  for (int r = 0; r < kWorld; ++r) {
    ASSERT_EQ(serial[static_cast<std::size_t>(r)].size(),
              overlapped[static_cast<std::size_t>(r)].size());
    for (std::size_t p = 0; p < serial[static_cast<std::size_t>(r)].size();
         ++p) {
      const Tensor& a = serial[static_cast<std::size_t>(r)][p];
      const Tensor& b = overlapped[static_cast<std::size_t>(r)][p];
      ASSERT_EQ(a.numel(), b.numel());
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            static_cast<std::size_t>(a.numel()) * sizeof(float)),
                0)
          << "rank " << r << " param " << p
          << ": overlap changed the averaged gradient bits";
    }
  }
}

TEST(OverlappedBucket, Stale1AppliesPreviousStepAndZerosAtStepZero) {
  Cluster cluster(2);
  cluster.run([&](Communicator& comm) {
    RankProblem prob(comm.rank(), /*step=*/0);
    OverlappedGradBucket ob(comm, prob.params,
                            OverlappedGradBucket::Mode::kStale1,
                            NetworkModel{});

    prob.loss().backward(&ob);
    ob.drain();  // step 0: applies zeros (nothing reduced yet)
    for (Variable& p : prob.params) {
      const Tensor& g = p.grad();
      for (std::int64_t i = 0; i < g.numel(); ++i) {
        ASSERT_EQ(g.data()[i], 0.0f) << "step 0 must apply zero gradients";
      }
    }

    // Step 1 applies step 0's reduced buckets: nonzero and identical
    // across ranks (the average of the two replicas' step-0 grads).
    for (Variable& p : prob.params) p.zero_grad();
    RankProblem step1(comm.rank(), /*step=*/1);
    // Reuse the SAME param objects so the observer mapping holds.
    Variable loss = two_consumer_loss(prob.params[0], prob.params[1], step1.x,
                                      step1.target);
    loss.backward(&ob);
    ob.drain();
    double sum = 0.0;
    for (Variable& p : prob.params) {
      const Tensor& g = p.grad();
      for (std::int64_t i = 0; i < g.numel(); ++i) {
        sum += static_cast<double>(g.data()[i]);
      }
    }
    EXPECT_NE(sum, 0.0);
    // Contract: pass a drain point before running our own collective —
    // step 1's bucket reduces are still in flight on the comm thread.
    ob.flush();
    const auto all = comm.allgather(sum);
    for (double v : all) EXPECT_EQ(v, all[0]);
    ob.finish();
  });
}

// ------------------------------------------------- mid-backward faults

TEST(OverlappedBucket, FaultDuringOverlappedReduceUnwindsCleanly) {
  // The last rank dies upon entering sync point `nth` — with overlap on,
  // the early sync points belong to comm-thread bucket reduces fired
  // mid-backward.  Sweeping nth across several buckets' worth of sync
  // points parks peers at every stage of an overlapped collective; all
  // ranks must unwind (comm thread -> drain() rethrow -> worker exit ->
  // PeerFailureError release) with no deadlock, and run() must rethrow
  // the original error.
  for (int w : {2, 4}) {
    const int points = alg::allreduce_sync_points(w);
    for (int nth = 0; nth < 3 * points; ++nth) {
      Cluster cluster(w);
      cluster.inject_fault_at_sync_point(w - 1, static_cast<std::uint64_t>(nth),
                                         "overlap fault");
      try {
        cluster.run([&](Communicator& comm) {
          // >= 2 buckets x several steps: far more sync points than the
          // sweep's upper bound, so the fault always lands mid-stream.
          for (int step = 0; step < 8; ++step) {
            RankProblem prob(comm.rank(), step);
            OverlappedGradBucket ob(comm, prob.params,
                                    OverlappedGradBucket::Mode::kStrict,
                                    NetworkModel{}, /*bucket_numel=*/8);
            prob.loss().backward(&ob);
            ob.drain();
            ob.finish();
          }
          ADD_FAILURE() << "rank " << comm.rank()
                        << " trained past a dead peer (w=" << w << ", nth="
                        << nth << ")";
        });
        FAIL() << "expected the original error (w=" << w << ", nth=" << nth
               << ")";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "overlap fault") << "w=" << w << ", nth=" << nth;
      }
    }
  }
}

// ---------------------------------------------------- trainer end to end

core::DistConfig overlap_dist(core::DistMode mode, int world) {
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
  return cfg;
}

TEST(GradOverlapTrainer, OffVsStrictBitIdenticalAllStrategiesWorldsDepths) {
  // The acceptance bar: strict overlap must not perturb a single loss
  // bit for any distribution strategy, world size, or prefetch depth.
  for (core::DistMode mode :
       {core::DistMode::kDistributedIndex, core::DistMode::kBaselineDdp,
        core::DistMode::kGeneralizedIndex,
        core::DistMode::kBaselineDdpBatchShuffle}) {
    for (int world : {1, 2, 4}) {
      for (int depth : {0, 2}) {
        core::DistConfig cfg = overlap_dist(mode, world);
        cfg.prefetch_depth = depth;
        cfg.grad_overlap = core::GradOverlap::kOff;
        const core::DistResult off = core::DistTrainer(cfg).run();
        cfg.grad_overlap = core::GradOverlap::kStrict;
        const core::DistResult strict = core::DistTrainer(cfg).run();
        ASSERT_EQ(strict.curve.size(), off.curve.size());
        for (std::size_t e = 0; e < off.curve.size(); ++e) {
          EXPECT_EQ(strict.curve[e].train_mae, off.curve[e].train_mae)
              << "mode " << static_cast<int>(mode) << " world " << world
              << " depth " << depth << " epoch " << e;
          EXPECT_EQ(strict.curve[e].val_mae, off.curve[e].val_mae)
              << "mode " << static_cast<int>(mode) << " world " << world
              << " depth " << depth << " epoch " << e;
        }
      }
    }
  }
}

TEST(GradOverlapTrainer, Stale1ConvergesWithinTolerance) {
  // Bounded staleness trades bit-exactness for overlap; it must still
  // land in the same neighborhood (MSPipe-style staleness bound).
  core::DistConfig cfg =
      overlap_dist(core::DistMode::kDistributedIndex, /*world=*/2);
  cfg.epochs = 4;
  cfg.max_batches_per_epoch = 4;
  cfg.grad_overlap = core::GradOverlap::kOff;
  const core::DistResult exact = core::DistTrainer(cfg).run();
  cfg.grad_overlap = core::GradOverlap::kStale1;
  const core::DistResult stale = core::DistTrainer(cfg).run();

  ASSERT_EQ(stale.curve.size(), exact.curve.size());
  const double v_exact = exact.curve.back().val_mae;
  const double v_stale = stale.curve.back().val_mae;
  EXPECT_GT(v_stale, 0.0);
  // Same neighborhood, not same bits: one-step staleness on a smooth
  // tiny problem stays within 25% of the exact trajectory's final MAE.
  EXPECT_LT(std::abs(v_stale - v_exact), 0.25 * v_exact)
      << "exact " << v_exact << " vs stale " << v_stale;
}

TEST(GradOverlapTrainer, ExposedGradSyncStrictlyLowerWithOverlap) {
  // The bench claim, as a test: at world 4 the exposed share of modeled
  // grad-sync time must strictly shrink when overlap is on, while the
  // losses stay bit-identical (checked exhaustively above).
  core::DistConfig cfg =
      overlap_dist(core::DistMode::kDistributedIndex, /*world=*/4);
  cfg.grad_overlap = core::GradOverlap::kOff;
  const core::DistResult off = core::DistTrainer(cfg).run();
  cfg.grad_overlap = core::GradOverlap::kStrict;
  const core::DistResult strict = core::DistTrainer(cfg).run();

  // Serial path: everything is exposed, nothing overlapped.
  EXPECT_GT(off.grad_sync_exposed_seconds, 0.0);
  EXPECT_EQ(off.grad_sync_overlapped_seconds, 0.0);

  // Overlapped path: same modeled total, split between hidden and
  // exposed — with the exposed share strictly lower.
  EXPECT_LT(strict.grad_sync_exposed_seconds, off.grad_sync_exposed_seconds);
  EXPECT_GT(strict.grad_sync_overlapped_seconds, 0.0);
  EXPECT_NEAR(
      strict.grad_sync_overlapped_seconds + strict.grad_sync_exposed_seconds,
      off.grad_sync_exposed_seconds, 1e-9);
}

TEST(GradOverlapTrainer, SingleWorkerOverlapIsFreeAndExact) {
  // World 1: the network model prices collectives at zero, so both
  // accounting legs must be zero while training still runs end to end.
  core::DistConfig cfg =
      overlap_dist(core::DistMode::kDistributedIndex, /*world=*/1);
  cfg.grad_overlap = core::GradOverlap::kStrict;
  const core::DistResult r = core::DistTrainer(cfg).run();
  ASSERT_EQ(r.curve.size(), 2u);
  EXPECT_EQ(r.grad_sync_exposed_seconds, 0.0);
  EXPECT_EQ(r.grad_sync_overlapped_seconds, 0.0);
}

}  // namespace
}  // namespace pgti::dist
