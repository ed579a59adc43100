#include "dist/transport_inprocess.h"

#include <cstring>
#include <utility>

namespace pgti::dist {

InProcessHub::InProcessHub(int world) : world_(world) {
  if (world < 1) throw std::invalid_argument("InProcessHub: world must be >= 1");
  mail_.resize(static_cast<std::size_t>(world) * static_cast<std::size_t>(world));
}

void InProcessHub::reset_for_run() {
  std::lock_guard<std::mutex> lk(mu_);
  arrived_ = 0;
  generation_ = 0;
  failed_ = false;
  for (auto& box : mail_) {
    // Recycle frames a failed run left in flight.
    while (!box.empty()) {
      pool_.push_back(std::move(box.front()));
      box.pop_front();
    }
  }
}

void InProcessHub::release_failure() noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  failed_ = true;
  cv_.notify_all();
}

void InProcessTransport::send(int peer, const void* data, std::size_t bytes) {
  InProcessHub& h = *hub_;
  std::vector<char> buf;
  {
    std::lock_guard<std::mutex> lk(h.mu_);
    if (!h.pool_.empty()) {
      buf = std::move(h.pool_.back());
      h.pool_.pop_back();
    }
  }
  buf.resize(bytes);
  if (bytes > 0) std::memcpy(buf.data(), data, bytes);
  {
    std::lock_guard<std::mutex> lk(h.mu_);
    // Delivery to a failed hub is harmless — reset_for_run recycles
    // undelivered frames — and letting the sender finish its posting
    // phase keeps the schedules' "all sends, then recvs" shape simple.
    h.mailbox(rank_, peer).push_back(std::move(buf));
  }
  h.cv_.notify_all();
}

void InProcessTransport::recv(int peer, void* data, std::size_t bytes) {
  InProcessHub& h = *hub_;
  std::vector<char> buf;
  {
    std::unique_lock<std::mutex> lk(h.mu_);
    auto& box = h.mailbox(peer, rank_);
    h.cv_.wait(lk, [&] { return h.failed_ || !box.empty(); });
    // Deliver frames that beat the failure flag: the sender completed
    // that send before unwinding, so the bytes are coherent.  Only an
    // EMPTY mailbox plus a failure means the frame will never come.
    if (box.empty()) throw PeerFailureError();
    buf = std::move(box.front());
    box.pop_front();
  }
  if (buf.size() != bytes) {
    throw TransportError("in-process recv: expected " + std::to_string(bytes) +
                         " bytes from rank " + std::to_string(peer) + ", got " +
                         std::to_string(buf.size()));
  }
  if (bytes > 0) std::memcpy(data, buf.data(), bytes);
  {
    std::lock_guard<std::mutex> lk(h.mu_);
    h.pool_.push_back(std::move(buf));
  }
}

void InProcessTransport::wait_for_peers() {
  InProcessHub& h = *hub_;
  std::unique_lock<std::mutex> lk(h.mu_);
  if (h.failed_) throw PeerFailureError();
  if (++h.arrived_ == h.world_) {
    h.arrived_ = 0;
    ++h.generation_;
    h.cv_.notify_all();
    return;
  }
  const std::uint64_t gen = h.generation_;
  h.cv_.wait(lk, [&] { return h.failed_ || h.generation_ != gen; });
  // A completed generation outranks a failure flag raised afterwards:
  // the collective finished; the failure surfaces at the next entry.
  if (h.generation_ == gen) throw PeerFailureError();
}

}  // namespace pgti::dist
