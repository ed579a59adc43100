// Ready-bucket gradient overlap: fire each bucket's all-reduce as soon
// as its last parameter gradient lands during backward, instead of one
// monolithic sync afterwards.
//
// OverlappedGradBucket implements GradReadyObserver.  backward() counts
// producers per requires_grad leaf (autograd/variable.h); each ready
// leaf decrements its bucket's dependency count, and when a bucket
// drains, the main thread packs it into a staging buffer and enqueues
// an all-reduce job on this rank's comm thread.  The comm thread runs
// the ordinary rank-ordered deterministic tree (Communicator::
// allreduce_mean), so per-bucket results are bit-identical to the
// serial GradBucket path — overlap changes *when* collectives run,
// never *what* they compute.  Because every replica builds the same
// tape, the ready order — and therefore the anonymous collective
// pairing across ranks — is identical everywhere.
//
// Threading contract (what keeps the Cluster's one-collective-thread-
// per-rank invariant): the comm thread only runs collectives between a
// job pop and its completion notification, both under this class's
// mutex; the main thread never enters a collective of its own without
// first passing a drain point (drain()/flush()) that waits for comm-
// thread quiescence through the same mutex.  The mutex chain also
// gives TSan the happens-before edges for the endpoint's sync counter
// (Transport::sync).
//
// Modes:
//   kStrict — drain() at step k waits for step k's buckets and applies
//     them: losses bit-identical to the serial path at every world
//     size and prefetch depth, with the reduce latency hidden under
//     the tail of backward.
//   kStale1 — bounded staleness (MSPipe's staleness-bound pipelining,
//     DistTGL's memory-staleness argument): drain() at step k waits
//     only for step k-1's buckets and applies those; step k's reduces
//     overlap the *next* step's compute.  Step 0 applies zeros (an
//     Adam step with zero gradient and zero weight decay is exactly a
//     no-op).  Staleness carries across epoch boundaries; convergence
//     is asserted within tolerance, not bit-exactness.
//
// Accounting mirrors the DistStore fetch split: each bucket's modeled
// allreduce seconds are classified against the wall window between
// enqueue and the drain that needed the result — exposed = max(0,
// modeled - window) — so DistResult can report overlapped vs exposed
// grad-sync time exactly as PR 3/4 report fetch time.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "autograd/variable.h"
#include "dist/cluster_model.h"
#include "dist/comm.h"
#include "dist/ddp.h"

namespace pgti::dist {

/// Per-rank overlapped gradient averager.  Construct inside the worker
/// function (one per rank); `params` and `comm` must outlive it.
class OverlappedGradBucket final : public GradReadyObserver {
 public:
  enum class Mode { kStrict, kStale1 };

  OverlappedGradBucket(Communicator& comm, std::vector<Variable>& params,
                       Mode mode, const NetworkModel& net,
                       std::int64_t bucket_numel = GradBucket::kDefaultBucketNumel);
  ~OverlappedGradBucket() override;

  OverlappedGradBucket(const OverlappedGradBucket&) = delete;
  OverlappedGradBucket& operator=(const OverlappedGradBucket&) = delete;

  // GradReadyObserver -------------------------------------------------
  void on_backward_start(const std::vector<Variable::Impl*>& leaves) override;
  void on_grad_ready(const Variable::Impl* leaf) override;

  /// Drain point: call once per training step, after backward and
  /// before the optimizer step (EpochEngine's sync_gradients hook).
  /// Strict: waits for this step's buckets and applies them.  Stale1:
  /// waits for the previous step's buckets and applies them (zeros at
  /// step 0).  Rethrows any comm-thread failure (fault injection,
  /// PeerFailureError) on the calling thread.
  void drain();

  /// Waits for comm-thread quiescence without applying anything.  Must
  /// be called before the main thread runs any collective of its own
  /// (end-of-epoch barriers / metric reductions).  In stale mode the
  /// completed-but-unapplied step stays buffered across the boundary.
  void flush();

  /// End of run: flush, then classify any still-unapplied bucket
  /// results as fully overlapped (they never gated a step), mirroring
  /// DistStore::abandon_prefetches.
  void finish();

  std::size_t bucket_count() const noexcept { return layout_.bucket_count(); }
  /// Modeled grad-sync seconds hidden under compute so far.
  double overlapped_seconds() const noexcept { return overlapped_; }
  /// Modeled grad-sync seconds the training loop actually waited for.
  double exposed_seconds() const noexcept { return exposed_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    std::size_t bucket = 0;
    int parity = 0;
    std::int64_t step = 0;
    double modeled_seconds = 0.0;
    Clock::time_point enqueued_at;
  };

  void enqueue_bucket_locked(std::size_t b);
  void comm_loop();
  void wait_parity_complete(std::unique_lock<std::mutex>& lock, bool both,
                            int parity);
  void classify_done_locked(std::int64_t max_step, Clock::time_point need);

  Communicator* comm_;
  std::vector<Variable>* params_;
  Mode mode_;
  NetworkModel net_;
  GradBucket layout_;

  std::unordered_map<const Variable::Impl*, std::size_t> bucket_of_;
  std::vector<double> bucket_modeled_;  // per bucket, allreduce seconds
  std::vector<int> pending_;            // per bucket, this sweep
  // Double-buffered staging: bufs_[step % 2][bucket].  Stale mode keeps
  // step k-1's results alive while step k packs the other parity.
  std::vector<std::vector<float>> bufs_[2];

  std::int64_t steps_started_ = 0;  // backward sweeps observed

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::vector<Job> done_;
  std::int64_t enqueued_[2] = {0, 0};   // per parity, current occupant step
  std::int64_t completed_[2] = {0, 0};
  std::exception_ptr error_;
  bool stop_ = false;
  std::thread comm_thread_;

  // Main-thread only.
  double overlapped_ = 0.0;
  double exposed_ = 0.0;
};

}  // namespace pgti::dist
