#include "dist/comm.h"

#include <thread>
#include <utility>

#include "runtime/thread_pool.h"

namespace pgti::dist {

void Communicator::allreduce(float* data, std::int64_t n, bool mean) {
  alg::tree_allreduce(*transport_, data, n, mean, scratch_);
  if (rank() == 0) {
    {
      std::lock_guard<std::mutex> lk(context_->mu_);
      ++context_->stats_.allreduce_count;
      context_->stats_.allreduce_bytes +=
          static_cast<std::uint64_t>(n) * sizeof(float) *
          static_cast<std::uint64_t>(world());
    }
    context_->sim_clock_.add(context_->network_.allreduce_seconds(
        n * static_cast<std::int64_t>(sizeof(float)), world()));
  }
}

void Communicator::allreduce_sum(float* data, std::int64_t n) {
  allreduce(data, n, /*mean=*/false);
}

void Communicator::allreduce_mean(float* data, std::int64_t n) {
  allreduce(data, n, /*mean=*/true);
}

double Communicator::allreduce_scalar_sum(double value) {
  const double result = alg::scalar_sum(*transport_, value);
  if (rank() == 0) {
    {
      std::lock_guard<std::mutex> lk(context_->mu_);
      ++context_->stats_.allreduce_count;
      context_->stats_.allreduce_bytes +=
          static_cast<std::uint64_t>(world()) * sizeof(double);
    }
    context_->sim_clock_.add(
        context_->network_.allreduce_seconds(sizeof(double), world()));
  }
  return result;
}

std::vector<double> Communicator::allgather(double value) {
  std::vector<double> result = alg::allgather_scalar(*transport_, value);
  if (rank() == 0) {
    {
      std::lock_guard<std::mutex> lk(context_->mu_);
      ++context_->stats_.allgather_count;
      context_->stats_.allgather_bytes +=
          static_cast<std::uint64_t>(sizeof(double)) *
          static_cast<std::uint64_t>(world()) *
          static_cast<std::uint64_t>(world() - 1);
    }
    context_->sim_clock_.add(
        context_->network_.allreduce_seconds(sizeof(double), world()));
  }
  return result;
}

void Communicator::broadcast(float* data, std::int64_t n, int root) {
  alg::tree_broadcast(*transport_, data, n, root);
  if (rank() == root) {
    {
      std::lock_guard<std::mutex> lk(context_->mu_);
      ++context_->stats_.broadcast_count;
      context_->stats_.broadcast_bytes +=
          static_cast<std::uint64_t>(n) * sizeof(float) *
          static_cast<std::uint64_t>(world() - 1);
    }
    context_->sim_clock_.add(context_->network_.allreduce_seconds(
        n * static_cast<std::int64_t>(sizeof(float)), world()));
  }
}

void Communicator::barrier() {
  alg::barrier(*transport_);
  if (rank() == 0) {
    std::lock_guard<std::mutex> lk(context_->mu_);
    ++context_->stats_.barrier_count;
    context_->stats_.barrier_bytes +=
        2u * static_cast<std::uint64_t>(world() - 1) * frame::kHeaderBytes;
  }
}

Cluster::Cluster(int world, NetworkModel network)
    : world_(world), context_(network), hub_(world) {
  if (world < 1) throw std::invalid_argument("Cluster: world must be >= 1");
}

void Cluster::inject_fault_at_sync_point(int rank, std::uint64_t nth,
                                         std::string message) {
  if (rank < 0 || rank >= world_) {
    throw std::invalid_argument("inject_fault_at_sync_point: bad rank");
  }
  hub_.arm_fault(rank, nth, std::move(message));
}

void Cluster::run(const std::function<void(Communicator&)>& fn) {
  hub_.reset_for_run();
  // Modeled time is per-run; traffic stats accumulate across runs.
  context_.reset_clock();

  // Error collection lives in the harness, not the transport: the
  // first non-peer-failure error wins, and the hub's failure flag is
  // raised (releasing blocked peers) only after the error is recorded.
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
    workers.emplace_back([this, r, share, &fn, &record_failure] {
      PoolShare pool_share(share);
      InProcessTransport endpoint(hub_, r);
      Communicator comm(endpoint, context_);
      try {
        fn(comm);
      } catch (const PeerFailureError&) {
        // Secondary casualty: keep unwinding, but never let it mask the
        // peer's original error.
        record_failure(std::current_exception(), /*is_peer_failure=*/true);
        endpoint.shutdown();
      } catch (...) {
        record_failure(std::current_exception(), /*is_peer_failure=*/false);
        endpoint.shutdown();
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // Injected faults are one-shot: disarm so a reused Cluster's next
  // run() (a supported pattern, e.g. a recovery pass after a
  // fault-injection pass) does not deterministically re-throw.
  hub_.arm_fault(-1, 0, std::string());

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pgti::dist
