// The serving workloads: serve::InferenceEngine over a read-only
// DistStore reader rank (synchronous staging, see stand_up) on the
// pems-bay-n41 store.
//
// Phase A is an open loop: one generator thread submits 200 requests/s
// on a fixed schedule and one collector thread times each request from
// the moment it was due, so a stall also charges the requests queued
// behind it.  Phase B is a closed loop: the same generator keeps 64
// requests outstanding until a fixed number has been served.  In both
// phases the generator advances the stream head every 100 ms and
// publishes a model snapshot every second.
//
// The request mix is synthetic; no serving trace backs it (README,
// "Serving mix", gives the basis of each number):
//  * serve-stream:  80% hot (one of the newest 64 windows, which the
//    engine keeps in the store's hot-window cache), 20% cold (uniform
//    over the test split);
//  * serve-uniform: every request uniform over the newest 2,048
//    windows, so only 64 / 2,048 of them land in the hot window.
// In both, half ask for every node and half for 8 random nodes;
// horizon 12.  Every forecast is checked, after the timed phases,
// against a single-request forward of the same window.
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "core/model_factory.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "dist/dist_store.h"
#include "runtime/memory_tracker.h"
#include "runtime/rng.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace pgti::benchmark {
namespace {

using namespace std::chrono_literals;

constexpr std::int64_t kHidden = 16;
constexpr int kDiffusion = 2;
constexpr int kLayers = 2;
constexpr int kHorizon = 12;
constexpr double kOpenRate = 200.0;          // requests per second, phase A
constexpr std::size_t kOutstanding = 64;     // phase B: EngineConfig::max_batch
// Each phase gets 0.3 of the budget, so that the set-ups, both phases
// and the after-run check fit in it.
constexpr double kPhaseShare = 0.3;
constexpr double kClosedPerSecond = 1500.0;  // phase B requests per phase second
constexpr std::int64_t kHotWindows = 64;     // EngineConfig::hot_window
constexpr std::int64_t kRecentWindows = 2048;
constexpr std::size_t kSubsetNodes = 8;
constexpr auto kAdvanceEvery = 100ms;
constexpr auto kPublishEvery = 1000ms;
constexpr int kSetups = 5;

/// Where a workload's requests point.
struct Mix {
  double hot_share = 0.0;  ///< requests on the newest kHotWindows windows
  /// The other requests: uniform over the newest this-many windows, or
  /// over the whole test split when 0.
  std::int64_t recent_windows = 0;
};

/// One stood-up server: signal, materialized store with a reader rank,
/// live model, snapshot slot and a started engine.
struct Server {
  data::DatasetSpec spec;
  std::optional<SensorNetwork> net;
  std::optional<dist::DistStore> store;
  int reader = -1;
  core::ModelBundle live;
  std::unique_ptr<serve::SnapshotSlot> slot;
  std::shared_ptr<const serve::ModelSnapshot> first;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::int64_t test_begin = 0, test_end = 0;
  double signal_s = 0.0, preprocess_s = 0.0, setup_s = 0.0;
};

std::unique_ptr<Server> stand_up(const Options& opt) {
  auto s = std::make_unique<Server>();
  const auto t0 = Clock::now();
  s->spec = pems_bay_n41(opt.smoke);
  s->net.emplace(data::network_for(s->spec));
  std::optional<Tensor> raw = data::generate_signal(s->spec, *s->net, opt.seed);
  const auto t1 = Clock::now();
  // Synchronous staging: with async_prefetch the store's constructor
  // starts the worker ranks' staging threads, which read the rank table
  // that add_reader() then grows without synchronization.
  s->store.emplace(data::StandardDataset(*raw, s->spec), /*world=*/1, dist::NetworkModel{},
                   /*consolidate_requests=*/true, /*cache_snapshots_per_rank=*/-1,
                   /*cache_bytes_per_rank=*/0, /*async_prefetch=*/false);
  raw.reset();
  const auto t2 = Clock::now();
  s->reader = s->store->add_reader();
  s->live = core::make_model(core::ModelKind::kPgtDcrnn, s->spec, *s->net, kHidden,
                             kDiffusion, kLayers, opt.seed);
  s->slot = std::make_unique<serve::SnapshotSlot>(core::ModelKind::kPgtDcrnn, s->spec,
                                                  *s->net, kHidden, kDiffusion, kLayers,
                                                  opt.seed);
  s->first = s->slot->publish(*s->live.model, 0);
  const data::SplitRanges& splits = s->store->splits();
  s->test_begin = splits.test_begin;
  s->test_end = splits.test_end;
  s->engine = std::make_unique<serve::InferenceEngine>(*s->slot, *s->store, s->reader);
  // The stream starts halfway into the test split so the head can
  // advance for the whole run.
  s->engine->advance_to(s->test_begin + (s->test_end - s->test_begin) / 2);
  s->engine->start();
  const auto t3 = Clock::now();
  s->signal_s = seconds_between(t0, t1);
  s->preprocess_s = seconds_between(t1, t2);
  s->setup_s = seconds_between(t0, t3);
  return s;
}

/// A completed forecast, kept for the after-run reference check.
struct Record {
  std::int64_t id = 0;
  std::uint8_t nodes = 0;  ///< 0 = every node
  std::int16_t node[kSubsetNodes] = {};
  std::uint64_t hash = 0;
};

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

struct InFlight {
  std::future<serve::Forecast> future;
  Record record;
  Clock::time_point due;  ///< open loop: schedule time; closed loop: submit time
};

/// Outcome of one phase.
struct Phase {
  std::vector<double> latency_ms, queue_ms;
  std::vector<Record> records;
  std::vector<double> done_s;  ///< completion times since the phase start
  std::int64_t attempted = 0, failed = 0;
  double wall_s = 0.0, gen_late_max_ms = 0.0;
  std::vector<double> publish_ms;
  std::uint64_t batches = 0, completed = 0;  ///< engine counter deltas

  /// Median completion rate over ten equal runs of consecutive
  /// completions, so a short stall of the host moves one tenth of the
  /// sample instead of the whole phase.
  double median_rate() const {
    const std::size_t chunk = done_s.size() / 10;
    if (chunk == 0) return wall_s > 0 ? static_cast<double>(done_s.size()) / wall_s : 0.0;
    std::vector<double> rates;
    double prev = 0.0;
    for (std::size_t i = 1; i <= 10; ++i) {
      const double t = done_s[i * chunk - 1];
      rates.push_back(static_cast<double>(chunk) / (t - prev));
      prev = t;
    }
    return median(rates);
  }
};

/// Generator + collector for one phase.  `open` selects the open loop
/// (`count` requests at kOpenRate) or the closed loop (`count` requests,
/// kOutstanding in flight).
class LoadGen {
 public:
  LoadGen(Server& s, const Mix& mix, Rng& rng, SpanBuffer* spans)
      : s_(s), mix_(mix), rng_(rng), spans_(spans) {}

  Phase run(bool open, std::int64_t count) {
    phase_ = Phase{};
    phase_.latency_ms.reserve(static_cast<std::size_t>(count));
    phase_.queue_ms.reserve(static_cast<std::size_t>(count));
    phase_.records.reserve(static_cast<std::size_t>(count));
    phase_.done_s.reserve(static_cast<std::size_t>(count));
    const serve::ServeStats before = s_.engine->stats();
    done_ = false;
    start_ = Clock::now();
    const auto start = start_;
    std::thread collector([this] { collect(); });
    next_advance_ = start + kAdvanceEvery;
    next_publish_ = start + kPublishEvery;
    try {
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kOpenRate));
      for (std::int64_t i = 0; i < count; ++i) {
        Clock::time_point due;
        if (open) {
          due = start + period * i;
          run_events_until(due);
          std::this_thread::sleep_until(due);
          phase_.gen_late_max_ms = std::max(phase_.gen_late_max_ms, ms_between(due, Clock::now()));
        } else {
          wait_for_slot();
          due = Clock::now();
        }
        submit(due);
      }
    } catch (...) {
      finish(collector);
      throw;
    }
    finish(collector);
    phase_.wall_s = seconds_between(start, Clock::now());
    const serve::ServeStats after = s_.engine->stats();
    phase_.batches = after.batches - before.batches;
    phase_.completed = after.completed - before.completed;
    return std::move(phase_);
  }

 private:
  void run_events_until(Clock::time_point t) {
    while (std::min(next_advance_, next_publish_) <= t) {
      if (next_advance_ <= next_publish_) {
        std::this_thread::sleep_until(next_advance_);
        const std::int64_t head = s_.engine->stream_head();
        if (head + 1 < s_.store->num_snapshots()) s_.engine->advance_to(head + 1);
        next_advance_ += kAdvanceEvery;
      } else {
        std::this_thread::sleep_until(next_publish_);
        const auto p0 = Clock::now();
        s_.slot->publish(*s_.live.model, 0);
        const auto p1 = Clock::now();
        phase_.publish_ms.push_back(ms_between(p0, p1));
        if (spans_) {
          std::lock_guard<std::mutex> lk(mu_);
          spans_->add("serve.publish", p0, p1, -1);
        }
        next_publish_ += kPublishEvery;
      }
    }
  }

  void wait_for_slot() {
    for (;;) {
      run_events_until(Clock::now());
      std::unique_lock<std::mutex> lk(mu_);
      if (cv_.wait_until(lk, std::min(next_advance_, next_publish_),
                         [&] { return in_flight_.size() < kOutstanding; })) {
        return;
      }
    }
  }

  void submit(Clock::time_point due) {
    serve::ForecastRequest req;
    Record rec;
    const std::int64_t head = s_.engine->stream_head();
    const auto back_from_head = [&](std::int64_t windows) {
      return head - static_cast<std::int64_t>(rng_.uniform_int(static_cast<std::uint64_t>(
                        std::min(windows, head - s_.test_begin + 1))));
    };
    if (rng_.uniform() < mix_.hot_share) {
      rec.id = back_from_head(kHotWindows);
    } else if (mix_.recent_windows > 0) {
      rec.id = back_from_head(mix_.recent_windows);
    } else {
      rec.id = s_.test_begin + static_cast<std::int64_t>(rng_.uniform_int(
                                   static_cast<std::uint64_t>(s_.test_end - s_.test_begin)));
    }
    req.snapshot = rec.id;
    req.horizon = kHorizon;
    if (rng_.next_u64() % 2 == 0) {
      // Eight distinct nodes (partial Fisher-Yates over the node ids).
      std::vector<std::int64_t> pool(static_cast<std::size_t>(s_.spec.nodes));
      for (std::size_t j = 0; j < pool.size(); ++j) pool[j] = static_cast<std::int64_t>(j);
      for (std::size_t j = 0; j < kSubsetNodes; ++j) {
        const std::size_t pick = j + rng_.next_u64() % (pool.size() - j);
        std::swap(pool[j], pool[pick]);
        rec.node[j] = static_cast<std::int16_t>(pool[j]);
      }
      rec.nodes = kSubsetNodes;
      req.nodes.assign(pool.begin(), pool.begin() + kSubsetNodes);
    }
    ++phase_.attempted;
    InFlight f;
    f.record = rec;
    f.due = due;
    try {
      f.future = s_.engine->submit(std::move(req));
    } catch (const serve::ServeError&) {
      std::lock_guard<std::mutex> lk(mu_);
      ++phase_.failed;  // rejected: queue full
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      in_flight_.push_back(std::move(f));
    }
    cv_.notify_all();
  }

  void collect() {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return done_ || !in_flight_.empty(); });
        if (in_flight_.empty()) return;
        f = std::move(in_flight_.front());
      }
      bool ok = true;
      serve::Forecast forecast;
      try {
        forecast = f.future.get();
      } catch (const std::exception&) {
        ok = false;
      }
      const auto end = Clock::now();
      {
        std::lock_guard<std::mutex> lk(mu_);
        in_flight_.pop_front();
        if (!ok) {
          ++phase_.failed;
        } else {
          phase_.latency_ms.push_back(ms_between(f.due, end));
          phase_.queue_ms.push_back(forecast.queue_seconds * 1e3);
          phase_.done_s.push_back(seconds_between(start_, end));
          f.record.hash = fnv1a(forecast.prediction.data(),
                                static_cast<std::size_t>(forecast.prediction.numel()) *
                                    sizeof(float));
          phase_.records.push_back(f.record);
          if (spans_) {
            const std::int32_t r = spans_->open("serve.request", f.due, f.record.id);
            spans_->close(r, end);
          }
        }
      }
      cv_.notify_all();
    }
  }

  void finish(std::thread& collector) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    collector.join();
  }

  Server& s_;
  const Mix& mix_;
  Rng& rng_;
  SpanBuffer* spans_;
  Phase phase_;
  Clock::time_point start_, next_advance_, next_publish_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<InFlight> in_flight_;
  bool done_ = false;
};

/// Re-derives every recorded forecast from a single-request forward of
/// its window against the first published snapshot (every publish
/// copies the same live parameters, so all versions must agree);
/// returns the number that differ.
std::int64_t verify(Server& s, const std::vector<const Phase*>& phases) {
  const data::DatasetSpec& spec = s.spec;
  const std::int64_t n = spec.nodes;
  std::unordered_map<std::int64_t, std::vector<float>> refs;
  std::int64_t mismatches = 0;
  for (const Phase* phase : phases) {
    for (const Record& r : phase->records) {
      auto it = refs.find(r.id);
      if (it == refs.end()) {
        Tensor x = Tensor::empty({1, spec.horizon, n, spec.features}, kHostSpace);
        x.select(0, 0).copy_from(s.store->fetch(/*rank=*/0, r.id).first);
        const std::vector<Variable> out = s.first->model().forward_seq(x);
        std::vector<float> full(static_cast<std::size_t>(kHorizon * n));
        for (int t = 0; t < kHorizon; ++t) {
          const Tensor row = out[static_cast<std::size_t>(t)].value().select(0, 0).contiguous();
          std::memcpy(full.data() + t * n, row.data(), static_cast<std::size_t>(n) * sizeof(float));
        }
        it = refs.emplace(r.id, std::move(full)).first;
      }
      const std::vector<float>& full = it->second;
      std::uint64_t h = 1469598103934665603ull;
      if (r.nodes == 0) {
        h = fnv1a(full.data(), full.size() * sizeof(float));
      } else {
        for (int t = 0; t < kHorizon; ++t) {
          for (std::size_t j = 0; j < r.nodes; ++j) {
            h = fnv1a(&full[static_cast<std::size_t>(t * n + r.node[j])], sizeof(float), h);
          }
        }
      }
      if (h != r.hash) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

void run_serve(const Options& opt, bool hot, Report& report) {
  const Mix mix = hot ? Mix{0.8, 0} : Mix{0.0, kRecentWindows};
  auto& tracker = MemoryTracker::instance();
  tracker.reset_peak(kHostSpace);
  // Set-up is measured several times; the last server stays up.
  std::vector<double> setups;
  std::unique_ptr<Server> s;
  const int setups_wanted = opt.smoke || opt.trace ? 1 : kSetups;
  for (int i = 0; i < setups_wanted; ++i) {
    s.reset();  // free the previous server first so the peaks do not stack
    s = stand_up(opt);
    setups.push_back(s->setup_s);
  }

  // The traced run splits phase B between an untraced and a traced
  // closed loop of half the size each.
  const double phase_s = opt.seconds * kPhaseShare;
  const auto open_count = static_cast<std::int64_t>(kOpenRate * phase_s);
  const auto closed_count =
      static_cast<std::int64_t>(kClosedPerSecond * phase_s / (opt.trace ? 2.0 : 1.0));
  Rng rng(opt.seed);
  std::optional<SpanBuffer> spans;
  const auto origin = Clock::now();
  // One span per traced request plus one per publish.
  if (opt.trace) spans.emplace(0, static_cast<std::size_t>(open_count + closed_count + 64));
  LoadGen gen(*s, mix, rng, opt.trace ? &*spans : nullptr);
  const Phase open = gen.run(/*open=*/true, open_count);
  std::optional<Phase> untraced;
  if (opt.trace) {
    // Tracing-overhead reference: the same closed loop without spans.
    LoadGen plain(*s, mix, rng, nullptr);
    untraced = plain.run(/*open=*/false, closed_count);
  }
  const Phase closed = gen.run(/*open=*/false, closed_count);
  s->engine->stop();
  const double peak_mb = static_cast<double>(tracker.peak(kHostSpace)) / 1e6;
  const serve::ServeStats stats = s->engine->stats();
  const dist::StoreStats store = s->store->stats();

  std::vector<const Phase*> phases = {&open, &closed};
  if (untraced) phases.push_back(&*untraced);
  std::int64_t attempted = 0, failed = 0;
  for (const Phase* p : phases) {
    attempted += p->attempted;
    failed += p->failed;
  }
  const std::int64_t mismatches = verify(*s, phases);
  report.gate(mismatches == 0, "every forecast is byte-identical to a single-request forward (" +
                                   std::to_string(mismatches) + " differ)");
  report.gate(stats.rejected + stats.timed_out + stats.failed == 0,
              "no request was rejected, timed out or failed");
  // A broken store ledger taints every request the reader served.
  const bool store_ok =
      report.gate(store.remote_bytes == store.bytes_copied + store.cache_hit_bytes,
                  "serving reader keeps remote_bytes == bytes_copied + cache_hit_bytes");
  report.ops(attempted, store_ok ? std::min(attempted, failed + mismatches) : attempted);

  if (!opt.trace) {
    const double setup = median(setups);
    report.set("setup_s", setup);
    report.set("workflow_s", setup + closed.wall_s);
    report.set("items_per_s", closed.median_rate());
    report.set("latency_p50_ms", median(open.latency_ms));
    report.set("peak_host_mb", peak_mb);
    return;
  }

  report.set("data.signal_s", s->signal_s);
  report.set("data.preprocess_s", s->preprocess_s);
  report.set("serve.queue_ms.p50", median(closed.queue_ms));
  report.set("serve.avg_batch", closed.batches > 0 ? static_cast<double>(closed.completed) /
                                                         static_cast<double>(closed.batches)
                                                   : 0.0);
  report.set("serve.p90_ms", percentile(open.latency_ms, 0.9));
  report.set("serve.p99_ms", percentile(open.latency_ms, 0.99));
  report.set("serve.sat_p50_ms", median(closed.latency_ms));
  std::vector<double> publish = open.publish_ms;
  publish.insert(publish.end(), closed.publish_ms.begin(), closed.publish_ms.end());
  report.set("serve.publish_ms.p50", median(publish));
  report.set("serve.gen_late_ms.max", open.gen_late_max_ms);
  const double completed = static_cast<double>(std::max<std::uint64_t>(stats.completed, 1));
  report.set("serve.store_bytes_copied_per_req", static_cast<double>(store.bytes_copied) / completed);
  report.set("serve.cache_hit_ratio",
             store.remote_snapshots > 0 ? static_cast<double>(store.cache_hits) /
                                              static_cast<double>(store.remote_snapshots)
                                        : 0.0);
  report.set("core.trace_overhead", closed.median_rate() / untraced->median_rate());
  probe_kernels(s->spec, /*batch=*/8, kHidden, report);
  report.gate(spans->dropped() == 0, "span buffers held every span");
  if (!opt.trace_out.empty()) {
    write_chrome_trace(opt.trace_out + "/" + opt.workload + ".trace.json", origin, {&*spans});
  }
}

}  // namespace pgti::benchmark
