// Micro-batched streaming inference engine (DESIGN.md §17).
//
// DistTGL's serving-side lesson: per-request forwards waste the
// batched kernels the training path already has.  The engine therefore
// coalesces concurrent same-horizon requests inside a configurable
// micro-batch window into ONE fused forward over an immutable
// ModelSnapshot:
//
//   submit() -> bounded RequestQueue -> coalescing worker
//     -> [capture snapshot, ArenaScope,
//         consolidated feature fetch, batched forward_seq,
//         per-request gather] -> promise/future
//
// Feature windows come through a read-only data::SnapshotProvider view
// (a DistStore reader rank in the distributed deployment).  The engine
// keeps a hot window resident: whenever the stream head moves (at
// construction and in advance_to) it sets the provider's retained
// range to the most recent `hot_window` snapshot ids, which the
// reader rank's SnapshotCache evicts last and stalest first, so
// repeated requests against the live head copy zero bytes.
//
// Every serving batch runs inside an ArenaScope on the worker thread —
// the first batch of a shape plans pool demand, every later batch
// replays alloc-free; result tensors escape the scope safely (arena
// blocks own a reference to the pool) and recycle when callers drop
// their forecasts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "data/snapshot_provider.h"
#include "runtime/arena.h"
#include "serve/request_queue.h"
#include "serve/snapshot.h"
#include "serve/types.h"

namespace pgti::serve {

struct EngineConfig {
  /// Bounded queue size; submits beyond it throw QueueFullError.
  std::int64_t queue_capacity = 256;
  /// How long the worker holds a batch open for more same-horizon
  /// requests after the first one (0 = batch only what is already
  /// queued at that instant).
  std::chrono::microseconds coalesce_window{1000};
  /// Hard cap on requests per fused forward.
  std::int64_t max_batch = 64;
  /// Most-recent snapshot ids the provider's cache retains, so they
  /// stay resident (0 = no hot window).
  std::int64_t hot_window = 64;
};

/// Accepts concurrent forecast requests, coalesces them, and serves
/// them against SnapshotSlot::current() through a read-only provider
/// view.  One worker thread; submit() is safe from any thread.
class InferenceEngine {
 public:
  /// `slot` and `provider` must outlive the engine.  `rank` is the
  /// provider rank every fetch is attributed to (a DistStore reader
  /// rank from add_reader(), or 0 for a local IndexProvider).
  InferenceEngine(SnapshotSlot& slot, data::SnapshotProvider& provider, int rank,
                  EngineConfig config = EngineConfig());
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Spawns the coalescing worker.  Without start(), requests queue up
  /// and stop() drains them inline on the calling thread — useful for
  /// deterministic single-threaded tests.
  void start();

  /// Closes the queue (new submits throw EngineStoppedError), drains
  /// every queued request to completion — served or failed, every
  /// future is ready when stop() returns — and joins the worker.
  /// Idempotent.
  void stop();

  /// Enqueues a request; the forecast (or its typed error) arrives
  /// through the returned future.  Throws QueueFullError on
  /// backpressure, EngineStoppedError after stop(), and
  /// std::invalid_argument for a non-positive horizon.  Deadlines are
  /// checked when the worker picks the request up: an expired request
  /// fails with DeadlineExceededError without running the forward or
  /// allocating any tensor.
  std::future<Forecast> submit(ForecastRequest request);

  /// Moves the live stream head: requests with snapshot = -1 resolve
  /// to `latest`, and the provider's cache retains the hot window
  /// [latest - hot_window + 1, latest] from now on.
  void advance_to(std::int64_t latest);

  std::int64_t stream_head() const noexcept { return head_.load(); }

  ServeStats stats() const;
  runtime::ArenaStats arena_stats() const { return arena_.stats(); }

 private:
  void worker_loop();
  void serve_batch(std::vector<PendingRequest>& batch);
  /// Retains the hot window [head - hot_window + 1, head] (clamped at
  /// 0; empty when hot_window is 0) in the provider's cache.
  void retain_hot_window(std::int64_t head);
  void fail_request(PendingRequest& pending, std::exception_ptr error);

  SnapshotSlot* slot_;
  data::SnapshotProvider* provider_;
  int rank_;
  EngineConfig cfg_;
  RequestQueue queue_;
  std::atomic<std::int64_t> head_;
  runtime::TensorArena arena_;
  std::thread worker_;
  bool started_ = false;
  bool stopped_ = false;
  std::mutex lifecycle_mu_;  ///< serializes start()/stop()

  mutable std::mutex stats_mu_;
  ServeStats stats_;
};

}  // namespace pgti::serve
