// InProcessTransport: the thread-backed wire under dist::Cluster.
//
// W ranks share one InProcessHub: a per-(src,dst) mailbox matrix of
// framed byte buffers plus the sense-reversing barrier that PRs 2-6
// ran the collectives on directly.  The hub preserves that barrier's
// exact failure semantics — a completed generation outranks a failure
// flag raised afterwards; peers blocked in sync or recv release with
// PeerFailureError the moment any rank records a failure.  Fault
// injection is the Transport base's, as on every wire.
//
// send() copies the payload into a hub-owned pooled buffer before
// returning (never blocks on the receiver; an unwinding sender cannot
// invalidate bytes in flight), and recv() copies out under a
// length-check.  Buffers recycle through a free pool so steady-state
// collectives allocate nothing.  Critical sections only move pointers;
// payload memcpys run outside the hub mutex.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "dist/transport.h"

namespace pgti::dist {

class InProcessTransport;

/// Shared state of one in-process cluster: mailboxes, barrier and
/// failure flag.  Owned by Cluster; endpoints hold a reference.
class InProcessHub {
 public:
  explicit InProcessHub(int world);

  int world() const noexcept { return world_; }

  /// Clears mailboxes, barrier state and failure state.  Called at the
  /// top of every Cluster::run so a reused cluster (including one that
  /// just unwound a fault) starts clean.
  void reset_for_run();

  /// Raises the failure flag and releases every rank blocked in
  /// sync()/recv().  Idempotent.
  void release_failure() noexcept;

 private:
  friend class InProcessTransport;

  std::deque<std::vector<char>>& mailbox(int src, int dst) {
    return mail_[static_cast<std::size_t>(src) * static_cast<std::size_t>(world_) +
                 static_cast<std::size_t>(dst)];
  }

  const int world_;

  std::mutex mu_;
  std::condition_variable cv_;

  // Sense-reversing barrier (exactly the pre-refactor Cluster barrier).
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  bool failed_ = false;

  // mail_[src * world + dst]: frames in flight; pool_: recycled buffers.
  std::vector<std::deque<std::vector<char>>> mail_;
  std::vector<std::vector<char>> pool_;
};

/// One rank's endpoint on an InProcessHub.
class InProcessTransport final : public Transport {
 public:
  InProcessTransport(InProcessHub& hub, int rank) : hub_(&hub), rank_(rank) {}

  int rank() const noexcept override { return rank_; }
  int world() const noexcept override { return hub_->world(); }

  void send(int peer, const void* data, std::size_t bytes) override;
  void recv(int peer, void* data, std::size_t bytes) override;
  void shutdown() noexcept override { hub_->release_failure(); }

 private:
  void wait_for_peers() override;

  InProcessHub* hub_;
  int rank_;
};

}  // namespace pgti::dist
