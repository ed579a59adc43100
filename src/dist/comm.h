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
// rethrows the ORIGINAL worker exception.  One rank loop
// (RankHarness::run_ranks) implements this for both thread harnesses,
// Cluster (mailbox endpoints) and SocketCluster (loopback TCP
// endpoints).
//
// Wall-clock is measured; network time is *modeled*: each collective
// charges its ring-all-reduce cost (NetworkModel) to a SimClock, so
// experiment runtimes compose measured compute with modeled
// communication (see runtime/timer.h).  Traffic stats accumulate
// across run() calls; modeled time is per-run (run() resets the
// SimClock so back-to-back runs report independent modeled times).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
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
/// (rank 0's is the one a DistResult reports, and since every
/// collective is recorded by one rank — rank 0, or a broadcast's
/// root — the view is identical).
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

  /// The collectives' share of modeled_seconds(): what the recording
  /// rank's collectives charged since the last reset_clock(), without
  /// anything added through charge_seconds.
  double collective_seconds() const { return collective_clock_.seconds(); }

  /// Modeled time is per-run; traffic stats accumulate across runs.
  void reset_clock() {
    sim_clock_.reset();
    collective_clock_.reset();
  }

  CommStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  friend class Communicator;

  NetworkModel network_;
  SimClock sim_clock_;
  SimClock collective_clock_;  ///< collectives only (sim_clock_ has them too)
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

  /// The one ledger write of a collective, made only on rank `recorder`
  /// (rank 0, or a broadcast's root) so the shared context counts each
  /// collective once: bumps `count`, adds `traffic` to `bytes`, and
  /// charges the modeled time of an all-reduce of `modeled_payload`
  /// bytes (a barrier moves no payload and charges none).
  void record(int recorder, std::uint64_t CommStats::*count,
              std::uint64_t CommStats::*bytes, std::uint64_t traffic,
              std::optional<std::int64_t> modeled_payload);

  Transport* transport_;
  CommContext* context_;
  alg::AllreduceScratch scratch_;
};

/// What both thread harnesses share: W rank threads in this process,
/// one CommContext behind all their Communicators, the fault armed for
/// the next run, and the one rank loop.  Cluster runs it over mailbox
/// endpoints, SocketCluster over loopback TCP endpoints.  Reusable:
/// each run resets the modeled-time clock; traffic stats accumulate
/// across runs.
class RankHarness {
 public:
  int world() const noexcept { return world_; }
  const NetworkModel& network() const noexcept { return context_.network(); }

  /// Deterministic fault injection for failure-semantics tests: worker
  /// `rank` throws std::runtime_error(message) upon entering its `nth`
  /// sync point (0-based, counted by that rank's endpoint, which every
  /// run builds afresh).  Lets a test park peers at any internal tree
  /// stage of a collective.  One-shot: the injection arms the NEXT
  /// run() only; run() disarms it on completion so a reused cluster
  /// can recover, and arming it again fails the next run at the same
  /// sync point.  Collective inputs are staged out of caller buffers
  /// before any stage runs (transport send-copies + algorithm
  /// scratch), so a rank unwinding mid-collective can never invalidate
  /// memory a surviving peer still reads.
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

 protected:
  RankHarness(int world, NetworkModel network);

  /// Builds rank `rank`'s endpoint, on that rank's thread.
  using EndpointFactory = std::function<std::unique_ptr<Transport>(int rank)>;

  /// The rank loop: resets the run's modeled clock, runs `fn(comm)` on
  /// W rank threads, each under a PoolShare of PoolShare::per_rank(W)
  /// so the ranks split the kernel pool instead of each forking to its
  /// full width, joins them, disarms the injected fault, and rethrows
  /// the first original worker exception (never a PeerFailureError
  /// when a real error caused the unwind).  A rank that throws shuts
  /// its endpoint down, releasing every peer blocked on it.
  void run_ranks(const EndpointFactory& make_endpoint,
                 const std::function<void(Communicator&)>& fn);

 private:
  struct PendingFault {
    int rank;
    std::uint64_t nth;
    std::string message;
  };

  int world_;
  CommContext context_;
  std::optional<PendingFault> fault_;
};

/// W thread-backed workers sharing one address space — the test- and
/// bench-scale stand-in for a multi-GPU job: one InProcessTransport
/// endpoint per rank over a shared mailbox hub.
class Cluster : public RankHarness {
 public:
  explicit Cluster(int world, NetworkModel network = NetworkModel{});

  /// Runs `fn(comm)` on every rank through the rank loop (see
  /// RankHarness::run_ranks) after clearing the hub's mailboxes and
  /// failure state.
  void run(const std::function<void(Communicator&)>& fn);

 private:
  InProcessHub hub_;
};

}  // namespace pgti::dist
