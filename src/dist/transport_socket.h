// SocketTransport: ranks as separate OS processes over a TCP full
// mesh (loopback or a real network), speaking the framed wire format
// of dist/transport.h.
//
// Rendezvous (DESIGN.md §15): rank 0 listens on a well-known port.
// Every rank > 0 first binds its own mesh listener (ephemeral port),
// connects to rank 0, and sends HELLO{rank, mesh_port}; once all W-1
// HELLOs are in, rank 0 answers each with a PEERS frame carrying the
// full port table.  The rendezvous connections become the (0,q) mesh
// edges; for every remaining pair a < b the higher rank dials the
// lower rank's mesh listener and identifies itself with a CONNECT
// frame.  Listener backlogs make the dial order deadlock-free.
//
// Data plane: send() copies the payload into a per-peer writer-thread
// queue and returns — one writer per edge, so a slow or dead peer can
// never head-of-line-block frames to a different peer (the property
// the sync protocol's liveness rests on).  recv() reads directly into
// the caller's buffer after validating the 16-byte header.  sync() is
// a star barrier in control frames: every rank sends ARRIVE to rank 0
// and blocks for RELEASE; rank 0 collects W-1 ARRIVEs, then releases
// everyone.
//
// Failure semantics: a rank that unwinds calls shutdown(), which
// half-closes every edge; peers observe EOF (or ECONNRESET/EPIPE) on
// their next read or write of that edge and throw PeerFailureError,
// cascading the unwind exactly like the in-process failure flag — a
// dying peer never hangs a socket read.  Every blocking read also
// carries a generous poll timeout as a last-resort liveness backstop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/comm.h"
#include "dist/transport.h"

namespace pgti::dist {

/// Binds a listening TCP socket on host:port (port 0 = ephemeral) and
/// returns {fd, resolved port}.  The caller owns the fd.  Used by the
/// multi-process launcher to bind the rendezvous port before forking.
std::pair<int, std::uint16_t> socket_listen(const std::string& host,
                                            std::uint16_t port, int backlog);

struct SocketOptions {
  int rank = 0;
  int world = 1;
  std::string host = "127.0.0.1";  ///< rendezvous + mesh interface
  std::uint16_t port = 0;          ///< rendezvous port (ranks > 0 dial it)
  /// Rank 0 only: an already-listening socket to accept rendezvous
  /// connections on (ownership transfers; -1 = bind host:port here).
  int listen_fd = -1;
  /// Liveness backstop for every blocking read; generous so loaded CI
  /// never trips it, small enough that a protocol bug cannot hang a
  /// suite past its ctest timeout.
  int recv_timeout_ms = 120000;
};

class SocketTransport final : public Transport {
 public:
  /// Performs the full rendezvous + mesh handshake; returns connected.
  explicit SocketTransport(const SocketOptions& options);
  ~SocketTransport() override;

  int rank() const noexcept override { return rank_; }
  int world() const noexcept override { return world_; }

  void send(int peer, const void* data, std::size_t bytes) override;
  void recv(int peer, void* data, std::size_t bytes) override;
  void shutdown() noexcept override;

 private:
  struct Peer {
    int fd = -1;
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<char>> queue;
    std::vector<std::vector<char>> pool;  ///< recycled frame buffers
    bool stop = false;     ///< drain the queue, then exit
    bool abort = false;    ///< exit now, dropping the queue
    bool edge_failed = false;
  };

  /// Star barrier in control frames (see the file comment).
  void wait_for_peers() override;
  void connect_mesh(const SocketOptions& options);
  void writer_loop(Peer& peer);
  void enqueue_frame(int peer, frame::Type type, const void* payload,
                     std::size_t bytes);
  /// Reads one frame of `expected` type from `peer`, validating the
  /// header and that the payload length is exactly `bytes`.
  void read_frame(int peer, frame::Type expected, void* payload,
                  std::size_t bytes);
  void close_all() noexcept;

  const int rank_;
  const int world_;
  const int recv_timeout_ms_;
  std::vector<std::unique_ptr<Peer>> peers_;  ///< index = peer rank
  std::atomic<bool> shutdown_{false};
};

/// Thread harness mirroring dist::Cluster, but every rank talks
/// through a real SocketTransport over loopback — the socket suite's
/// and bench's way to exercise the TCP wire with in-process
/// convenience (ephemeral ports, so ctest-parallel safe).  For true
/// multi-process ranks, construct SocketTransport + Communicator
/// directly (see examples/socket_ddp.cpp).
class SocketCluster : public RankHarness {
 public:
  explicit SocketCluster(int world, NetworkModel network = NetworkModel{})
      : RankHarness(world, network) {}

  /// Binds a fresh rendezvous port, then runs `fn(comm)` on every rank
  /// through the rank loop (see RankHarness::run_ranks); each rank
  /// thread builds its endpoint by rendezvous on that port.
  void run(const std::function<void(Communicator&)>& fn);
};

}  // namespace pgti::dist
