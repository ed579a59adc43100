#include "dist/comm.h"

#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runtime/thread_pool.h"

namespace pgti::dist {

void Communicator::record(int recorder, std::uint64_t CommStats::*count,
                          std::uint64_t CommStats::*bytes, std::uint64_t traffic,
                          std::optional<std::int64_t> modeled_payload) {
  if (rank() != recorder) return;
  {
    std::lock_guard<std::mutex> lk(context_->mu_);
    ++(context_->stats_.*count);
    context_->stats_.*bytes += traffic;
  }
  if (modeled_payload) {
    const double seconds = context_->network_.allreduce_seconds(*modeled_payload, world());
    context_->sim_clock_.add(seconds);
    context_->collective_clock_.add(seconds);
  }
}

void Communicator::allreduce(float* data, std::int64_t n, bool mean) {
  alg::tree_allreduce(*transport_, data, n, mean, scratch_);
  const std::uint64_t payload = static_cast<std::uint64_t>(n) * sizeof(float);
  record(0, &CommStats::allreduce_count, &CommStats::allreduce_bytes,
         payload * static_cast<std::uint64_t>(world()),
         n * static_cast<std::int64_t>(sizeof(float)));
}

void Communicator::allreduce_sum(float* data, std::int64_t n) {
  allreduce(data, n, /*mean=*/false);
}

void Communicator::allreduce_mean(float* data, std::int64_t n) {
  allreduce(data, n, /*mean=*/true);
}

double Communicator::allreduce_scalar_sum(double value) {
  const double result = alg::scalar_sum(*transport_, value);
  record(0, &CommStats::allreduce_count, &CommStats::allreduce_bytes,
         static_cast<std::uint64_t>(world()) * sizeof(double), sizeof(double));
  return result;
}

std::vector<double> Communicator::allgather(double value) {
  std::vector<double> result = alg::allgather_scalar(*transport_, value);
  record(0, &CommStats::allgather_count, &CommStats::allgather_bytes,
         static_cast<std::uint64_t>(sizeof(double)) *
             static_cast<std::uint64_t>(world()) *
             static_cast<std::uint64_t>(world() - 1),
         sizeof(double));
  return result;
}

void Communicator::broadcast(float* data, std::int64_t n, int root) {
  alg::tree_broadcast(*transport_, data, n, root);
  record(root, &CommStats::broadcast_count, &CommStats::broadcast_bytes,
         static_cast<std::uint64_t>(n) * sizeof(float) *
             static_cast<std::uint64_t>(world() - 1),
         n * static_cast<std::int64_t>(sizeof(float)));
}

void Communicator::barrier() {
  alg::barrier(*transport_);
  record(0, &CommStats::barrier_count, &CommStats::barrier_bytes,
         2u * static_cast<std::uint64_t>(world() - 1) * frame::kHeaderBytes,
         std::nullopt);
}

RankHarness::RankHarness(int world, NetworkModel network)
    : world_(world), context_(network) {
  if (world < 1) throw std::invalid_argument("cluster: world must be >= 1");
}

void RankHarness::inject_fault_at_sync_point(int rank, std::uint64_t nth,
                                             std::string message) {
  if (rank < 0 || rank >= world_) {
    throw std::invalid_argument("inject_fault_at_sync_point: bad rank");
  }
  fault_ = PendingFault{rank, nth, std::move(message)};
}

void RankHarness::run_ranks(const EndpointFactory& make_endpoint,
                            const std::function<void(Communicator&)>& fn) {
  // Modeled time is per-run; traffic stats accumulate across runs.
  context_.reset_clock();

  // Error collection lives in the harness, not the transport: the
  // first non-peer-failure error wins, and a failing rank's endpoint
  // is shut down (releasing blocked peers) only after its error is
  // recorded.
  std::mutex err_mu;
  std::exception_ptr first_error;
  bool first_error_is_peer_failure = false;
  auto record_failure = [&](std::exception_ptr error, bool is_peer_failure) {
    std::lock_guard<std::mutex> lk(err_mu);
    if (!first_error || (first_error_is_peer_failure && !is_peer_failure)) {
      first_error = error;
      first_error_is_peer_failure = is_peer_failure;
    }
  };

  // The ranks split the kernel pool: together they fork at most its
  // threads (DESIGN.md §18).
  const int share = PoolShare::per_rank(world_);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(world_));
  for (int r = 0; r < world_; ++r) {
    workers.emplace_back([this, r, share, &make_endpoint, &fn, &record_failure] {
      PoolShare pool_share(share);
      std::unique_ptr<Transport> endpoint;
      try {
        endpoint = make_endpoint(r);
        if (fault_ && fault_->rank == r) {
          endpoint->inject_fault_at_sync_point(fault_->nth, fault_->message);
        }
        Communicator comm(*endpoint, context_);
        fn(comm);
      } catch (const PeerFailureError&) {
        // Secondary casualty: keep unwinding, but never let it mask the
        // peer's original error.
        record_failure(std::current_exception(), /*is_peer_failure=*/true);
        if (endpoint) endpoint->shutdown();
      } catch (...) {
        record_failure(std::current_exception(), /*is_peer_failure=*/false);
        if (endpoint) endpoint->shutdown();
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // Injected faults are one-shot: a reused cluster's next run() (a
  // supported pattern, e.g. a recovery pass after a fault-injection
  // pass) does not re-throw.
  fault_.reset();

  if (first_error) std::rethrow_exception(first_error);
}

Cluster::Cluster(int world, NetworkModel network)
    : RankHarness(world, network), hub_(world) {}

void Cluster::run(const std::function<void(Communicator&)>& fn) {
  hub_.reset_for_run();
  run_ranks([this](int r) { return std::make_unique<InProcessTransport>(hub_, r); },
            fn);
}

}  // namespace pgti::dist
