#include "dist/transport_socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <utility>

namespace pgti::dist {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  // Collective frames are latency-sensitive request/response pairs;
  // Nagle would serialize the sync-point control frames.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("socket: bad IPv4 host '" + host + "'");
  }
  return addr;
}

/// Blocking exact-length read with a poll() liveness backstop.
/// Peer death surfaces as PeerFailureError (EOF / ECONNRESET); a
/// timeout or any other error is a TransportError.
void read_all(int fd, void* data, std::size_t bytes, int timeout_ms) {
  std::size_t got = 0;
  char* out = static_cast<char*>(data);
  while (got < bytes) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr == 0) throw TransportError("socket read timed out");
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("socket poll failed");
    }
    const ssize_t r = ::recv(fd, out + got, bytes - got, 0);
    if (r == 0) throw PeerFailureError();
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) throw PeerFailureError();
      throw_errno("socket read failed");
    }
    got += static_cast<std::size_t>(r);
  }
}

/// Best-effort exact-length write; false once the peer is gone
/// (EPIPE/ECONNRESET) or the edge was shut down under us.
bool write_all(int fd, const char* data, std::size_t bytes) {
  std::size_t sent = 0;
  while (sent < bytes) {
    const ssize_t r = ::send(fd, data + sent, bytes - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

int accept_one(int listen_fd, int timeout_ms) {
  for (;;) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr == 0) throw TransportError("rendezvous accept timed out");
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("rendezvous poll failed");
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    throw_errno("rendezvous accept failed");
  }
}

int connect_to(const std::string& host, std::uint16_t port, int timeout_ms) {
  const sockaddr_in addr = make_addr(host, port);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    // A listener that has not reached listen() yet (rank processes
    // racing through startup) refuses; retry until the backstop.
    if ((err == ECONNREFUSED || err == EINTR) &&
        std::chrono::steady_clock::now() < deadline) {
      struct timespec ts{0, 5 * 1000 * 1000};  // 5 ms
      ::nanosleep(&ts, nullptr);
      continue;
    }
    errno = err;
    throw_errno("connect to " + host + ":" + std::to_string(port) + " failed");
  }
}

frame::Header read_header(int fd, int timeout_ms) {
  frame::Header h{};
  read_all(fd, &h, frame::kHeaderBytes, timeout_ms);
  if (h.magic != frame::kMagic) {
    throw TransportError("socket frame: bad magic");
  }
  return h;
}

void write_frame_direct(int fd, frame::Type type, int sender_rank,
                        const void* payload, std::size_t bytes) {
  std::vector<char> buf(frame::kHeaderBytes + bytes);
  frame::Header h{frame::kMagic, static_cast<std::uint16_t>(type),
                  static_cast<std::uint16_t>(sender_rank),
                  static_cast<std::uint64_t>(bytes)};
  std::memcpy(buf.data(), &h, frame::kHeaderBytes);
  if (bytes > 0) std::memcpy(buf.data() + frame::kHeaderBytes, payload, bytes);
  if (!write_all(fd, buf.data(), buf.size())) {
    throw TransportError("rendezvous write failed");
  }
}

}  // namespace

std::pair<int, std::uint16_t> socket_listen(const std::string& host,
                                            std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket() failed");
  try {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = make_addr(host, port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("bind " + host + ":" + std::to_string(port) + " failed");
    }
    if (::listen(fd, backlog) != 0) throw_errno("listen failed");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      throw_errno("getsockname failed");
    }
    return {fd, ntohs(bound.sin_port)};
  } catch (...) {
    ::close(fd);
    throw;
  }
}

SocketTransport::SocketTransport(const SocketOptions& options)
    : rank_(options.rank),
      world_(options.world),
      recv_timeout_ms_(options.recv_timeout_ms) {
  if (world_ < 1 || rank_ < 0 || rank_ >= world_) {
    throw std::invalid_argument("SocketTransport: bad rank/world");
  }
  peers_.resize(static_cast<std::size_t>(world_));
  for (auto& p : peers_) p = std::make_unique<Peer>();
  try {
    connect_mesh(options);
  } catch (...) {
    close_all();
    throw;
  }
  for (int q = 0; q < world_; ++q) {
    if (q == rank_) continue;
    Peer* p = peers_[static_cast<std::size_t>(q)].get();
    p->writer = std::thread([this, p] { writer_loop(*p); });
  }
}

void SocketTransport::connect_mesh(const SocketOptions& options) {
  if (world_ == 1) {
    if (options.listen_fd >= 0) ::close(options.listen_fd);
    return;
  }

  if (rank_ == 0) {
    int lfd = options.listen_fd;
    if (lfd < 0) {
      lfd = socket_listen(options.host, options.port, world_).first;
    }
    std::vector<std::uint16_t> ports(static_cast<std::size_t>(world_), 0);
    try {
      for (int i = 0; i < world_ - 1; ++i) {
        const int fd = accept_one(lfd, recv_timeout_ms_);
        set_nodelay(fd);
        const frame::Header h = read_header(fd, recv_timeout_ms_);
        if (h.type != static_cast<std::uint16_t>(frame::Type::kHello) ||
            h.bytes != sizeof(std::uint16_t)) {
          ::close(fd);
          throw TransportError("rendezvous: expected HELLO frame");
        }
        std::uint16_t mesh_port = 0;
        read_all(fd, &mesh_port, sizeof(mesh_port), recv_timeout_ms_);
        const int q = h.rank;
        if (q <= 0 || q >= world_ ||
            peers_[static_cast<std::size_t>(q)]->fd >= 0) {
          ::close(fd);
          throw TransportError("rendezvous: bad or duplicate HELLO rank " +
                               std::to_string(q));
        }
        peers_[static_cast<std::size_t>(q)]->fd = fd;
        ports[static_cast<std::size_t>(q)] = mesh_port;
      }
    } catch (...) {
      ::close(lfd);
      throw;
    }
    ::close(lfd);
    for (int q = 1; q < world_; ++q) {
      write_frame_direct(peers_[static_cast<std::size_t>(q)]->fd,
                         frame::Type::kPeers, 0, ports.data(),
                         ports.size() * sizeof(std::uint16_t));
    }
    return;
  }

  // Ranks > 0: mesh listener first, so its port rides in the HELLO and
  // is guaranteed live before any peer learns it from the PEERS table.
  auto [mesh_lfd, mesh_port] = socket_listen(options.host, 0, world_);
  try {
    const int fd0 = connect_to(options.host, options.port, recv_timeout_ms_);
    peers_[0]->fd = fd0;
    set_nodelay(fd0);
    write_frame_direct(fd0, frame::Type::kHello, rank_, &mesh_port,
                       sizeof(mesh_port));

    const frame::Header ph = read_header(fd0, recv_timeout_ms_);
    if (ph.type != static_cast<std::uint16_t>(frame::Type::kPeers) ||
        ph.rank != 0 ||
        ph.bytes != static_cast<std::uint64_t>(world_) * sizeof(std::uint16_t)) {
      throw TransportError("rendezvous: expected PEERS frame");
    }
    std::vector<std::uint16_t> ports(static_cast<std::size_t>(world_), 0);
    read_all(fd0, ports.data(), ports.size() * sizeof(std::uint16_t),
             recv_timeout_ms_);

    // Dial every lower nonzero rank; they identify us by the CONNECT
    // frame.  Listener backlogs absorb the dials, so the global dial
    // order (everyone dials down before accepting up) cannot deadlock.
    for (int a = 1; a < rank_; ++a) {
      const int fd = connect_to(options.host, ports[static_cast<std::size_t>(a)],
                                recv_timeout_ms_);
      set_nodelay(fd);
      write_frame_direct(fd, frame::Type::kConnect, rank_, nullptr, 0);
      peers_[static_cast<std::size_t>(a)]->fd = fd;
    }
    // Accept every higher rank.
    for (int i = 0; i < world_ - 1 - rank_; ++i) {
      const int fd = accept_one(mesh_lfd, recv_timeout_ms_);
      set_nodelay(fd);
      const frame::Header h = read_header(fd, recv_timeout_ms_);
      const int q = h.rank;
      if (h.type != static_cast<std::uint16_t>(frame::Type::kConnect) ||
          h.bytes != 0 || q <= rank_ || q >= world_ ||
          peers_[static_cast<std::size_t>(q)]->fd >= 0) {
        ::close(fd);
        throw TransportError("mesh: bad or duplicate CONNECT");
      }
      peers_[static_cast<std::size_t>(q)]->fd = fd;
    }
  } catch (...) {
    ::close(mesh_lfd);
    throw;
  }
  ::close(mesh_lfd);
}

SocketTransport::~SocketTransport() {
  for (auto& p : peers_) {
    if (!p) continue;
    {
      std::lock_guard<std::mutex> lk(p->mu);
      p->stop = true;
    }
    p->cv.notify_all();
  }
  for (auto& p : peers_) {
    if (p && p->writer.joinable()) p->writer.join();
  }
  close_all();
}

void SocketTransport::close_all() noexcept {
  for (auto& p : peers_) {
    if (p && p->fd >= 0) {
      ::close(p->fd);
      p->fd = -1;
    }
  }
}

void SocketTransport::writer_loop(Peer& peer) {
  for (;;) {
    std::vector<char> buf;
    {
      std::unique_lock<std::mutex> lk(peer.mu);
      peer.cv.wait(lk, [&] {
        return peer.abort || peer.stop || !peer.queue.empty();
      });
      if (peer.abort) return;
      if (peer.queue.empty()) {
        if (peer.stop) return;  // drained
        continue;
      }
      buf = std::move(peer.queue.front());
      peer.queue.pop_front();
    }
    if (!write_all(peer.fd, buf.data(), buf.size())) {
      std::lock_guard<std::mutex> lk(peer.mu);
      peer.edge_failed = true;
      return;
    }
    std::lock_guard<std::mutex> lk(peer.mu);
    peer.pool.push_back(std::move(buf));
  }
}

void SocketTransport::enqueue_frame(int peer, frame::Type type,
                                    const void* payload, std::size_t bytes) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  std::vector<char> buf;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    if (p.edge_failed) throw PeerFailureError();
    if (!p.pool.empty()) {
      buf = std::move(p.pool.back());
      p.pool.pop_back();
    }
  }
  buf.resize(frame::kHeaderBytes + bytes);
  frame::Header h{frame::kMagic, static_cast<std::uint16_t>(type),
                  static_cast<std::uint16_t>(rank_),
                  static_cast<std::uint64_t>(bytes)};
  std::memcpy(buf.data(), &h, frame::kHeaderBytes);
  if (bytes > 0) std::memcpy(buf.data() + frame::kHeaderBytes, payload, bytes);
  {
    std::lock_guard<std::mutex> lk(p.mu);
    if (p.edge_failed) throw PeerFailureError();
    p.queue.push_back(std::move(buf));
  }
  p.cv.notify_all();
}

void SocketTransport::read_frame(int peer, frame::Type expected, void* payload,
                                 std::size_t bytes) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  const frame::Header h = read_header(p.fd, recv_timeout_ms_);
  if (h.type != static_cast<std::uint16_t>(expected) || h.rank != peer) {
    throw TransportError(
        "socket frame: expected type " +
        std::to_string(static_cast<int>(expected)) + " from rank " +
        std::to_string(peer) + ", got type " + std::to_string(h.type) +
        " from rank " + std::to_string(h.rank));
  }
  if (h.bytes != bytes) {
    throw TransportError("socket frame: expected " + std::to_string(bytes) +
                         " payload bytes from rank " + std::to_string(peer) +
                         ", got " + std::to_string(h.bytes));
  }
  if (bytes > 0) read_all(p.fd, payload, bytes, recv_timeout_ms_);
}

void SocketTransport::send(int peer, const void* data, std::size_t bytes) {
  if (peer < 0 || peer >= world_ || peer == rank_) {
    throw TransportError("socket send: bad peer " + std::to_string(peer));
  }
  enqueue_frame(peer, frame::Type::kData, data, bytes);
}

void SocketTransport::recv(int peer, void* data, std::size_t bytes) {
  if (peer < 0 || peer >= world_ || peer == rank_) {
    throw TransportError("socket recv: bad peer " + std::to_string(peer));
  }
  read_frame(peer, frame::Type::kData, data, bytes);
}

void SocketTransport::wait_for_peers() {
  if (world_ == 1) return;
  if (rank_ == 0) {
    for (int q = 1; q < world_; ++q) {
      read_frame(q, frame::Type::kArrive, nullptr, 0);
    }
    for (int q = 1; q < world_; ++q) {
      enqueue_frame(q, frame::Type::kRelease, nullptr, 0);
    }
  } else {
    enqueue_frame(0, frame::Type::kArrive, nullptr, 0);
    read_frame(0, frame::Type::kRelease, nullptr, 0);
  }
}

void SocketTransport::shutdown() noexcept {
  if (shutdown_.exchange(true)) return;
  // Half-close every edge first: peers blocked in read_all observe EOF
  // and unwind with PeerFailureError; our own writers' in-flight
  // send() fails and they exit via abort below.  fds stay open until
  // the destructor so no concurrent thread can race a recycled fd.
  for (auto& p : peers_) {
    if (p && p->fd >= 0) ::shutdown(p->fd, SHUT_RDWR);
  }
  for (auto& p : peers_) {
    if (!p) continue;
    {
      std::lock_guard<std::mutex> lk(p->mu);
      p->abort = true;
    }
    p->cv.notify_all();
  }
}

void SocketCluster::run(const std::function<void(Communicator&)>& fn) {
  const auto [listen_fd, port] = socket_listen("127.0.0.1", 0, world());
  run_ranks(
      [this, listen_fd = listen_fd, port = port](int r) {
        SocketOptions opt;
        opt.rank = r;
        opt.world = world();
        opt.port = port;
        if (r == 0) opt.listen_fd = listen_fd;
        return std::make_unique<SocketTransport>(opt);
      },
      fn);
}

}  // namespace pgti::dist
