// Transport: the wire layer under the collective algorithm layer.
//
// The deterministic tree schedules in dist/algorithms.h are written
// against this interface only — point-to-point send/recv of framed
// byte buffers plus a global sync-point primitive — so the same
// schedule (and therefore the same per-element accumulation order,
// the paper §5.3 bit-identity contract) runs unchanged whether ranks
// are threads in one address space (InProcessTransport) or separate
// OS processes connected by TCP (SocketTransport).
//
// Contracts every implementation must honour:
//
//  * One collective thread per rank.  A rank's send/recv/sync calls
//    are issued by exactly one thread at a time; when a comm thread
//    takes over (OverlappedGradBucket), the handoff is ordered by the
//    bucket's drain/flush mutexes.  An endpoint may therefore keep
//    per-rank state (the sync counter, the armed fault) unsynchronized.
//
//  * send() never blocks on the application.  Payloads are copied out
//    of the caller's buffer before send() returns (into a mailbox or a
//    writer-thread queue), so the deadlock-freedom argument of the
//    schedules — "post every send of a phase, then recv" — holds, and
//    an unwinding rank can never invalidate bytes a surviving peer has
//    yet to read.
//
//  * recv() is blocking and length-checked.  The schedules are
//    deterministic, so the receiver always knows the exact payload
//    size; a mismatched frame is a protocol bug (TransportError), not
//    a truncation.  Zero-byte messages are legal (ceil-chunked
//    collectives produce empty slices when n < world) and still
//    consume one frame.
//
//  * Failure semantics: when any rank unwinds, every peer blocked in
//    recv() or sync() must be released with PeerFailureError — never a
//    hang, and never silently completing a collective past a dead
//    peer.  The harness (Cluster / SocketCluster / a dying process)
//    calls shutdown() on the failing rank's endpoint to trigger the
//    release: in-process it raises the hub's failed flag; over sockets
//    it half-closes every edge so peers observe EOF.
//
//  * Fault injection lives here, once, for every wire: sync() counts
//    this endpoint's entries, and inject_fault_at_sync_point(nth, msg)
//    makes entry nth (0-based, counted from the endpoint's
//    construction) throw std::runtime_error(msg) BEFORE the wire's
//    barrier, so peers are parked exactly as a real mid-collective
//    death would park them.  Tests sweep every sync point of every
//    collective on both backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace pgti::dist {

/// Thrown inside surviving workers when a peer dies mid-collective.
/// The rank loop under Cluster::run / SocketCluster::run swallows
/// these in favour of the peer's original error.
class PeerFailureError : public std::runtime_error {
 public:
  PeerFailureError()
      : std::runtime_error("peer worker failed; collective aborted") {}
};

/// A violated framing/protocol invariant (wrong magic, wrong frame
/// type, length mismatch, malformed rendezvous).  Distinct from
/// PeerFailureError: this is a bug, not a casualty.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace frame {

/// Wire format shared by SocketTransport and modeled by the stats
/// ledger (CommStats::barrier_bytes): every message is one 16-byte
/// little-endian header followed by `bytes` of payload.
///
///   [u32 magic "PGT1"] [u16 type] [u16 sender rank] [u64 payload bytes]
///
/// DATA frames carry collective payloads; ARRIVE/RELEASE are the
/// zero-payload sync-point control frames (every rank sends ARRIVE to
/// rank 0, rank 0 answers RELEASE); HELLO/PEERS/CONNECT implement the
/// rendezvous + mesh handshake (DESIGN.md §15).
constexpr std::uint32_t kMagic = 0x50475431u;  // "PGT1"

enum class Type : std::uint16_t {
  kData = 1,
  kArrive = 2,
  kRelease = 3,
  kHello = 4,
  kPeers = 5,
  kConnect = 6,
};

struct Header {
  std::uint32_t magic;
  std::uint16_t type;
  std::uint16_t rank;
  std::uint64_t bytes;
};

constexpr std::size_t kHeaderBytes = sizeof(Header);
static_assert(sizeof(Header) == 16, "frame header must pack to 16 bytes");

}  // namespace frame

/// Per-rank endpoint: what one rank of the cluster sees of the wire.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  virtual int rank() const noexcept = 0;
  virtual int world() const noexcept = 0;

  /// Copies `bytes` of `data` toward `peer` and returns without
  /// waiting for the receiver (see header contract).  Per-edge FIFO:
  /// two sends to the same peer arrive in order.
  virtual void send(int peer, const void* data, std::size_t bytes) = 0;

  /// Blocks until the next frame from `peer` arrives, validates that
  /// its payload length is exactly `bytes`, and copies it into `data`.
  /// Throws PeerFailureError if the peer died instead.
  virtual void recv(int peer, void* data, std::size_t bytes) = 0;

  /// Global sync point: blocks until every live rank arrives; throws
  /// PeerFailureError if a peer died instead.  Counts this endpoint's
  /// entries and throws the armed fault, if this is its entry, before
  /// the wire's barrier.
  void sync() {
    const std::uint64_t entry = syncs_entered_++;
    if (fault_ && entry == fault_->nth) throw std::runtime_error(fault_->message);
    wait_for_peers();
  }

  /// Arms a one-shot injected fault: this endpoint's sync() entry `nth`
  /// (0-based, counted from construction) throws
  /// std::runtime_error(message) instead of arriving.
  void inject_fault_at_sync_point(std::uint64_t nth, std::string message) {
    fault_ = Fault{nth, std::move(message)};
  }

  /// Marks this rank as failed and releases every peer blocked on it
  /// (PeerFailureError on their side).  Idempotent; called by the run
  /// harness while unwinding, so it must not throw.
  virtual void shutdown() noexcept = 0;

 private:
  /// The wire's own barrier behind sync().
  virtual void wait_for_peers() = 0;

  struct Fault {
    std::uint64_t nth;
    std::string message;
  };
  std::uint64_t syncs_entered_ = 0;
  std::optional<Fault> fault_;
};

}  // namespace pgti::dist
