#include "serve/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace pgti::serve {
namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

InferenceEngine::InferenceEngine(SnapshotSlot& slot, data::SnapshotProvider& provider,
                                 int rank, EngineConfig config)
    : slot_(&slot),
      provider_(&provider),
      rank_(rank),
      cfg_(config),
      queue_(config.queue_capacity),
      head_(provider.num_snapshots() - 1) {
  if (cfg_.max_batch < 1) {
    throw std::invalid_argument("InferenceEngine: max_batch must be >= 1");
  }
  if (cfg_.hot_window < 0) {
    throw std::invalid_argument("InferenceEngine: hot_window must be >= 0");
  }
  retain_hot_window(head_.load());
}

InferenceEngine::~InferenceEngine() { stop(); }

void InferenceEngine::start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (stopped_) throw EngineStoppedError();
  if (started_) return;
  started_ = true;
  worker_ = std::thread([this] { worker_loop(); });
}

void InferenceEngine::stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (stopped_) return;
  stopped_ = true;
  queue_.close();
  if (started_) {
    // Drain mode: pops keep delivering the backlog, windows collapse
    // (a closed empty queue never waits), so the worker finishes every
    // queued future and exits on its own.
    worker_.join();
  } else {
    // Never started: drain the backlog inline, deterministically, on
    // the calling thread — same loop, same results.
    worker_loop();
  }
}

std::future<Forecast> InferenceEngine::submit(ForecastRequest request) {
  if (request.horizon < 1) {
    throw std::invalid_argument("InferenceEngine: horizon must be >= 1");
  }
  PendingRequest pending;
  pending.request = std::move(request);
  pending.submitted_at = std::chrono::steady_clock::now();
  std::future<Forecast> fut = pending.promise.get_future();
  try {
    queue_.push(std::move(pending));
  } catch (const QueueFullError&) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.rejected;
    throw;
  }
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++stats_.submitted;
  return fut;
}

void InferenceEngine::advance_to(std::int64_t latest) {
  if (latest < 0 || latest >= provider_->num_snapshots()) {
    throw std::out_of_range("InferenceEngine: snapshot " + std::to_string(latest) +
                            " outside [0, " +
                            std::to_string(provider_->num_snapshots()) + ")");
  }
  head_.store(latest);
  retain_hot_window(latest);
}

ServeStats InferenceEngine::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void InferenceEngine::retain_hot_window(std::int64_t head) {
  const std::int64_t begin = std::max<std::int64_t>(0, head - cfg_.hot_window + 1);
  provider_->retain(rank_, begin, head + 1);
}

void InferenceEngine::fail_request(PendingRequest& pending, std::exception_ptr error) {
  pending.promise.set_exception(std::move(error));
}

void InferenceEngine::worker_loop() {
  PendingRequest head;
  while (queue_.pop(head)) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= head.request.deadline) {
      // Expired in the queue: typed failure, no forward, no tensor —
      // the alloc-balance assertions in serve_test lean on this path
      // touching no memory at all.
      fail_request(head, std::make_exception_ptr(DeadlineExceededError()));
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.timed_out;
      continue;
    }
    const int horizon = head.request.horizon;
    std::vector<PendingRequest> batch;
    batch.push_back(std::move(head));
    // Hold the batch open for more same-horizon requests until the
    // window closes or the batch is full.  A different-horizon head
    // ends collection (it leads the next batch); window 0 still sweeps
    // everything already queued at this instant.
    const auto close_at = now + cfg_.coalesce_window;
    while (static_cast<std::int64_t>(batch.size()) < cfg_.max_batch) {
      PendingRequest next;
      if (!queue_.pop_matching(horizon, close_at, next)) break;
      if (std::chrono::steady_clock::now() >= next.request.deadline) {
        fail_request(next, std::make_exception_ptr(DeadlineExceededError()));
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.timed_out;
        continue;
      }
      batch.push_back(std::move(next));
    }
    serve_batch(batch);
  }
}

void InferenceEngine::serve_batch(std::vector<PendingRequest>& batch) {
  const auto formed_at = std::chrono::steady_clock::now();
  const std::shared_ptr<const ModelSnapshot> snap = slot_->current();
  if (!snap) {
    for (auto& p : batch) {
      fail_request(p, std::make_exception_ptr(SnapshotUnavailableError()));
    }
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.failed += batch.size();
    return;
  }

  const data::DatasetSpec& spec = provider_->spec();
  const std::int64_t T = spec.horizon;
  const std::int64_t N = spec.nodes;
  const std::int64_t F = spec.features;
  const int horizon = batch.front().request.horizon;
  const std::int64_t num = provider_->num_snapshots();
  const std::int64_t head_id = head_.load();

  if (horizon > snap->model().output_steps(T)) {
    auto err = std::make_exception_ptr(
        ServeError("serve: horizon " + std::to_string(horizon) +
                   " exceeds the model's " +
                   std::to_string(snap->model().output_steps(T)) +
                   " prediction steps"));
    for (auto& p : batch) fail_request(p, err);
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.failed += batch.size();
    return;
  }

  // Resolve snapshot ids (-1 = stream head) and validate per request;
  // a bad id or node set fails only its own request, the rest of the
  // batch still rides.
  std::vector<PendingRequest> live;
  std::vector<std::int64_t> ids;  // parallel to live
  live.reserve(batch.size());
  ids.reserve(batch.size());
  std::uint64_t rejected = 0;
  for (auto& p : batch) {
    const std::int64_t id = p.request.snapshot < 0 ? head_id : p.request.snapshot;
    if (id < 0 || id >= num) {
      fail_request(p, std::make_exception_ptr(ServeError(
                          "serve: snapshot " + std::to_string(id) + " outside [0, " +
                          std::to_string(num) + ")")));
      ++rejected;
      continue;
    }
    bool nodes_ok = true;
    for (std::int64_t node : p.request.nodes) {
      if (node < 0 || node >= N) {
        nodes_ok = false;
        break;
      }
    }
    if (!nodes_ok) {
      fail_request(p, std::make_exception_ptr(
                          ServeError("serve: node id outside [0, " +
                                     std::to_string(N) + ")")));
      ++rejected;
      continue;
    }
    ids.push_back(id);
    live.push_back(std::move(p));
  }
  if (rejected > 0) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.failed += rejected;
  }
  if (live.empty()) return;

  // Everything from here allocates inside the batch scope: the first
  // batch of a shape plans pool demand, later batches replay against
  // the pool.  Result tensors escape the scope by design and recycle
  // when the caller drops them.
  runtime::ArenaScope scope(arena_);

  // One consolidated fetch per distinct window (requests against the
  // same head coalesce into a single provider access).
  std::vector<std::int64_t> unique;
  unique.reserve(ids.size());
  for (std::int64_t id : ids) {
    if (std::find(unique.begin(), unique.end(), id) == unique.end()) {
      unique.push_back(id);
    }
  }

  const std::int64_t B = static_cast<std::int64_t>(live.size());
  std::vector<Variable> outputs;
  std::unordered_map<std::int64_t, Tensor> windows;
  try {
    provider_->prefetch_batch(rank_, unique);
    windows.reserve(unique.size());
    for (std::int64_t id : unique) {
      auto [x, y] = provider_->fetch(rank_, id);
      (void)y;
      windows.emplace(id, std::move(x));
    }
    // The batch has reached its consumer: this closes the overlap
    // window of the request the announcement above opened.
    provider_->notify_batch_delivered(rank_);
    Tensor x = Tensor::empty({B, T, N, F}, kHostSpace);
    for (std::int64_t b = 0; b < B; ++b) {
      x.select(0, b).copy_from(windows.at(ids[static_cast<std::size_t>(b)]));
    }
    outputs = snap->model().forward_seq(x);
  } catch (...) {
    // A mid-batch fetch/forward failure must not strand announced
    // prefetches pinned in the provider's cache.
    provider_->abandon_prefetches(rank_);
    auto err = std::current_exception();
    for (auto& p : live) fail_request(p, err);
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.failed += live.size();
    return;
  }

  const std::int64_t out_dim = snap->model().output_dim();
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (std::int64_t b = 0; b < B; ++b) {
    PendingRequest& p = live[static_cast<std::size_t>(b)];
    try {
      const std::vector<std::int64_t>& nodes = p.request.nodes;
      const std::int64_t n_out =
          nodes.empty() ? N : static_cast<std::int64_t>(nodes.size());
      Tensor pred = Tensor::empty({horizon, n_out, out_dim}, kHostSpace);
      for (int s = 0; s < horizon; ++s) {
        const Tensor row = outputs[static_cast<std::size_t>(s)].value().select(0, b);
        Tensor dst = pred.select(0, s);
        if (nodes.empty()) {
          dst.copy_from(row);
        } else {
          for (std::int64_t j = 0; j < n_out; ++j) {
            dst.select(0, j).copy_from(
                row.select(0, nodes[static_cast<std::size_t>(j)]));
          }
        }
      }
      Forecast f;
      f.prediction = std::move(pred);
      f.snapshot_version = snap->version();
      f.coalesced_batch = B;
      f.queue_seconds = seconds_between(p.submitted_at, formed_at);
      p.promise.set_value(std::move(f));
      ++completed;
    } catch (...) {
      fail_request(p, std::current_exception());
      ++failed;
    }
  }

  std::lock_guard<std::mutex> lk(stats_mu_);
  ++stats_.batches;
  stats_.completed += completed;
  stats_.failed += failed;
  if (B > 1) stats_.coalesced_requests += completed;
  stats_.max_coalesced = std::max(stats_.max_coalesced, static_cast<std::uint64_t>(B));
}

}  // namespace pgti::serve
