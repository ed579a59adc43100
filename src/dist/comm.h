// Distributed runtime: deterministic collectives over pluggable
// transports.
//
// The stack has three layers (DESIGN.md §15):
//
//   dist/algorithms.h   — transport-agnostic tree schedules.  Stage
//                         order and accumulation order live here, so
//                         results are bit-identical on every backend
//                         (paper §5.3's "identical accuracy" claim).
//   dist/transport.h    — the wire: framed send/recv + sync points
//                         with PeerFailureError semantics.  Two
//                         implementations: InProcessTransport (thread
//                         mailboxes, this file's Cluster) and
//                         SocketTransport (TCP full mesh, ranks as
//                         separate OS processes; transport_socket.h).
//   Communicator        — the per-rank API the trainers use.  Binds a
//                         Transport endpoint to a shared CommContext
//                         (traffic stats + modeled-time clock) and
//                         runs the algorithm layer.
//
// Failure semantics mirror a well-behaved NCCL + torchrun stack: when
// any worker throws, peers blocked in a collective are released with
// PeerFailureError instead of deadlocking — at EVERY tree stage, since
// each stage ends in a sync point — the cluster unwinds, and run()
// rethrows the ORIGINAL worker exception.
//
// Wall-clock is measured; network time is *modeled*: each collective
// charges its ring-all-reduce cost (NetworkModel) to a SimClock, so
// experiment runtimes compose measured compute with modeled
// communication (see runtime/timer.h).  Traffic stats accumulate
// across run() calls; modeled time is per-run (run() resets the
// SimClock so back-to-back runs report independent modeled times).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/algorithms.h"
#include "dist/cluster_model.h"
#include "dist/transport.h"
#include "dist/transport_inprocess.h"
#include "runtime/timer.h"

namespace pgti::dist {

/// Collective-traffic ledger (what DistResult reports).  Every
/// collective counts symmetrically: calls plus the payload bytes that
/// cross rank boundaries.
struct CommStats {
  std::uint64_t allreduce_count = 0;
  std::uint64_t allreduce_bytes = 0;  ///< summed over all ranks' buffers
  std::uint64_t broadcast_count = 0;
  std::uint64_t broadcast_bytes = 0;  ///< payload x (world - 1) receivers
  std::uint64_t allgather_count = 0;
  /// Payload bytes crossing rank boundaries per allgather: each rank's
  /// value delivered to the other world-1 ranks (0 at world == 1).
  std::uint64_t allgather_bytes = 0;
  std::uint64_t barrier_count = 0;
  /// Barrier traffic: a barrier moves no payload, so its cost is the
  /// sync-point control frames — world-1 ARRIVE plus world-1 RELEASE
  /// frames of frame::kHeaderBytes each (what SocketTransport puts on
  /// the wire; the in-process backend ledgers the same number so the
  /// stats are transport-invariant).
  std::uint64_t barrier_bytes = 0;
};

/// Shared model/ledger facade behind every Communicator of one
/// cluster: the NetworkModel, the modeled-time SimClock, and the
/// traffic stats.  In-process, one CommContext is shared by all W
/// ranks; in multi-process socket runs each rank process owns its own
/// (rank 0's is the one a DistResult reports, and since stats are
/// charged by rank 0 only, the view is identical).
///
/// Thread-safety: stats_ is guarded by mu_; sim_clock is a lock-free
/// atomic accumulator (runtime/timer.h), so charge_seconds is safe
/// from per-rank comm threads and the main thread concurrently —
/// dist_transport_test hammers it under TSan.
class CommContext {
 public:
  explicit CommContext(NetworkModel network = NetworkModel{})
      : network_(network) {}

  const NetworkModel& network() const noexcept { return network_; }

  /// Adds externally modeled time (e.g. DistStore fetches) to the
  /// communication clock.  Thread-safe (atomic accumulate).
  void charge_seconds(double seconds) { sim_clock_.add(seconds); }

  /// Modeled communication seconds since the last reset_clock().
  double modeled_seconds() const { return sim_clock_.seconds(); }

  /// Modeled time is per-run; traffic stats accumulate across runs.
  void reset_clock() { sim_clock_.reset(); }

  CommStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  friend class Communicator;

  NetworkModel network_;
  SimClock sim_clock_;
  mutable std::mutex mu_;
  CommStats stats_;
};

/// Per-rank handle passed to the worker function: binds one Transport
/// endpoint to the shared CommContext and runs the algorithm layer.
/// All collectives must be entered by every rank of the cluster
/// (standard SPMD contract); only one thread per rank may sit in a
/// collective at a time (see dist/transport.h).
class Communicator {
 public:
  Communicator(Transport& transport, CommContext& context)
      : transport_(&transport), context_(&context) {}
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int rank() const noexcept { return transport_->rank(); }
  int world() const noexcept { return transport_->world(); }

  /// In-place sum across ranks; identical bits on every rank.
  void allreduce_sum(float* data, std::int64_t n);
  /// In-place mean across ranks; identical bits on every rank.
  void allreduce_mean(float* data, std::int64_t n);
  /// Rank-ordered scalar sum (validation metric aggregation).
  double allreduce_scalar_sum(double value);
  /// Every rank's value, ordered by rank.
  std::vector<double> allgather(double value);
  /// Copies root's buffer into every other rank's buffer through a
  /// prefix-doubling tree mirroring the all-reduce pairing schedule:
  /// stage s delivers to root-relative ranks [2^s, 2^(s+1)), and each
  /// stage ends in a sync point so peers unwind (PeerFailureError) at
  /// every tree depth.  Copies are bit-safe, so the tree costs no
  /// determinism.
  void broadcast(float* data, std::int64_t n, int root);
  /// Blocks until every live rank arrives (throws PeerFailureError if
  /// a peer died instead).
  void barrier();

  /// The shared model/ledger facade (modeled-time plumbing for code
  /// that holds only a Communicator, e.g. DistTrainer rank bodies in
  /// multi-process runs).
  const NetworkModel& network() const noexcept { return context_->network(); }
  void charge_seconds(double seconds) { context_->charge_seconds(seconds); }
  const CommContext& context() const noexcept { return *context_; }

 private:
  void allreduce(float* data, std::int64_t n, bool mean);

  Transport* transport_;
  CommContext* context_;
  alg::AllreduceScratch scratch_;
};

/// W thread-backed workers sharing one address space — the test- and
/// bench-scale stand-in for a multi-GPU job, now one InProcessTransport
/// endpoint per rank over a shared mailbox hub.  Reusable: each run()
/// resets failure state and the modeled-time clock; traffic stats
/// accumulate across runs.
class Cluster {
 public:
  explicit Cluster(int world, NetworkModel network = NetworkModel{});

  /// Runs `fn(comm)` on every rank, joins all workers, and rethrows the
  /// first original worker exception (never a PeerFailureError when a
  /// real error caused the unwind).  Each rank thread runs under a
  /// PoolShare of PoolShare::per_rank(world), so the ranks split the
  /// kernel pool instead of each forking to its full width.
  void run(const std::function<void(Communicator&)>& fn);

  int world() const noexcept { return world_; }
  const NetworkModel& network() const noexcept { return context_.network(); }

  /// Reduce-stage count (tree depth) of one all-reduce at `world`
  /// ranks: ceil(log2(world)), and 1 for a single rank (the copy
  /// stage).  Stage s accumulates source ranks [2^s, 2^(s+1)).
  static int allreduce_stages(int world) noexcept {
    return alg::allreduce_stages(world);
  }

  /// Internal sync points one all-reduce passes through (collective
  /// entry + input exchange + one per tree stage + final gather).
  /// Peers must be releasable by PeerFailureError at every one of
  /// them; tests/dist_determinism_test.cpp sweeps them all.
  static int allreduce_sync_points(int world) noexcept {
    return alg::allreduce_sync_points(world);
  }

  /// Internal sync points one broadcast passes through (payload
  /// staging + one per delivery stage); the tree mirrors
  /// allreduce_stages(world).  tests/dist_test.cpp sweeps them all.
  static int broadcast_sync_points(int world) noexcept {
    return alg::broadcast_sync_points(world);
  }

  /// Deterministic fault injection for failure-semantics tests: worker
  /// `rank` throws std::runtime_error(message) upon entering its `nth`
  /// sync point (0-based, counted per rank and reset by run()).  Lets
  /// a test park peers at any internal tree stage of a collective.
  /// One-shot: the injection arms the NEXT run() only; run() disarms
  /// it on completion so a reused Cluster can recover.
  /// Collective inputs are staged out of caller buffers before any
  /// stage runs (transport send-copies + algorithm scratch), so a rank
  /// unwinding mid-collective can never invalidate memory a surviving
  /// peer still reads.
  void inject_fault_at_sync_point(int rank, std::uint64_t nth, std::string message);

  /// Collective-traffic totals so far.
  CommStats stats() const { return context_.stats(); }

  /// Modeled communication seconds of the current/most recent run
  /// (collectives plus anything charged via charge_seconds).
  double modeled_comm_seconds() const { return context_.modeled_seconds(); }

  /// Adds externally modeled time (e.g. DistStore fetches) to the
  /// communication clock.  Thread-safe: SimClock accumulates with an
  /// atomic CAS loop, so per-rank comm threads and the main thread may
  /// charge concurrently (see runtime/timer.h).
  void charge_seconds(double seconds) { context_.charge_seconds(seconds); }

  /// The shared model/ledger facade (for harnesses that construct
  /// their own Communicators over other transports).
  CommContext& context() noexcept { return context_; }

 private:
  int world_;
  CommContext context_;
  InProcessHub hub_;
};

}  // namespace pgti::dist
