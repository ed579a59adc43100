#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/memory_tracker.h"
#include "runtime/rng.h"
#include "runtime/thread_pool.h"
#include "runtime/timer.h"

namespace pgti {
namespace {

// ---------------------------------------------------------------- memory

TEST(MemoryTracker, HostSpaceIsZero) {
  EXPECT_EQ(MemoryTracker::instance().register_space("host"), kHostSpace);
}

TEST(MemoryTracker, RegisterIsIdempotent) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId a = t.register_space("idempotent-space");
  const MemorySpaceId b = t.register_space("idempotent-space");
  EXPECT_EQ(a, b);
}

TEST(MemoryTracker, TracksCurrentAndPeak) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId s = t.register_space("peak-space");
  const std::size_t base = t.current(s);
  t.on_alloc(s, 1000);
  t.on_alloc(s, 500);
  EXPECT_EQ(t.current(s), base + 1500);
  t.on_free(s, 500);
  EXPECT_EQ(t.current(s), base + 1000);
  EXPECT_GE(t.peak(s), base + 1500);
  t.on_free(s, 1000);
}

TEST(MemoryTracker, ResetPeakDropsToCurrent) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId s = t.register_space("reset-peak-space");
  t.on_alloc(s, 4096);
  t.on_free(s, 4096);
  t.reset_peak(s);
  EXPECT_EQ(t.peak(s), t.current(s));
}

TEST(MemoryTracker, LimitEnforcedWithOom) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId s = t.register_space("limited-space");
  t.set_limit(s, 1024);
  t.on_alloc(s, 512);
  EXPECT_THROW(t.on_alloc(s, 1024), OutOfMemoryError);
  // A failed allocation must not change usage.
  EXPECT_EQ(t.current(s), 512u);
  t.on_free(s, 512);
  t.set_limit(s, 0);
}

TEST(MemoryTracker, OomCarriesDiagnostics) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId s = t.register_space("oom-diag-space");
  t.set_limit(s, 100);
  try {
    t.on_alloc(s, 200);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    EXPECT_EQ(e.requested(), 200u);
    EXPECT_EQ(e.limit(), 100u);
  }
  t.set_limit(s, 0);
}

TEST(MemoryTracker, ZeroLimitMeansUnlimited) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId s = t.register_space("unlimited-space");
  t.set_limit(s, 0);
  EXPECT_NO_THROW(t.on_alloc(s, 1ull << 30));
  t.on_free(s, 1ull << 30);
}

TEST(MemoryTracker, TimelineRecordsSamples) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId s = t.register_space("timeline-space");
  t.clear_timeline(s);
  t.on_alloc(s, 100);
  t.sample(s, 0.5, "mid");
  t.on_free(s, 100);
  t.sample(s, 1.0, "end");
  const auto tl = t.timeline(s);
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl[0].label, "mid");
  EXPECT_GE(tl[0].bytes, 100u);
  EXPECT_LT(tl[1].bytes, tl[0].bytes);
}

TEST(MemoryTracker, ScopedPeakWatch) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId s = t.register_space("scoped-space");
  ScopedPeakWatch watch(s);
  t.on_alloc(s, 9999);
  t.on_free(s, 9999);
  EXPECT_GE(watch.peak_bytes(), 9999u);
}

TEST(MemoryTracker, ConcurrentAllocFree) {
  auto& t = MemoryTracker::instance();
  const MemorySpaceId s = t.register_space("concurrent-space");
  const std::size_t before = t.current(s);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 1000; ++j) {
        t.on_alloc(s, 64);
        t.on_free(s, 64);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.current(s), before);
}

TEST(FormatBytes, HumanReadable) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(45.75e9), "45.75 GB");
  EXPECT_EQ(format_bytes(419.46e9), "419.46 GB");
}

// ---------------------------------------------------------------- thread pool

TEST(ThreadPool, CoversWholeRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SmallRangeRunsInline) {
  std::atomic<int> sum{0};
  parallel_for(0, 3, 100, [&](std::int64_t lo, std::int64_t hi) {
    sum += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  std::vector<double> v(100000);
  std::iota(v.begin(), v.end(), 0.0);
  std::atomic<long long> psum{0};
  parallel_for(0, static_cast<std::int64_t>(v.size()), 1024,
               [&](std::int64_t lo, std::int64_t hi) {
                 long long local = 0;
                 for (std::int64_t i = lo; i < hi; ++i) {
                   local += static_cast<long long>(v[static_cast<std::size_t>(i)]);
                 }
                 psum += local;
               });
  EXPECT_EQ(psum.load(), 100000LL * 99999 / 2);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(
      ThreadPool::global().parallel_for(0, 1000,
                                        [](std::int64_t lo, std::int64_t) {
                                          if (lo >= 0) throw std::runtime_error("boom");
                                        }),
      std::runtime_error);
}

TEST(ThreadPool, ConcurrentCallersBothComplete) {
  std::atomic<int> total{0};
  std::thread a([&] {
    parallel_for(0, 500, 1, [&](std::int64_t lo, std::int64_t hi) {
      total += static_cast<int>(hi - lo);
    });
  });
  std::thread b([&] {
    parallel_for(0, 500, 1, [&](std::int64_t lo, std::int64_t hi) {
      total += static_cast<int>(hi - lo);
    });
  });
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 1000);
}

/// One chunk a parallel_for call ran: its range and the thread that
/// ran it.
struct Chunk {
  std::int64_t lo;
  std::int64_t hi;
  std::thread::id thread;
};

/// Runs parallel_for(0, n, 1, ...) and records every chunk it ran.
std::vector<Chunk> record_chunks(std::int64_t n) {
  std::mutex mu;
  std::vector<Chunk> chunks;
  parallel_for(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(Chunk{lo, hi, std::this_thread::get_id()});
  });
  return chunks;
}

/// True when `chunks` cover [0, n) with every index exactly once.
bool covers_once(const std::vector<Chunk>& chunks, std::int64_t n) {
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  for (const Chunk& c : chunks) {
    for (std::int64_t i = c.lo; i < c.hi; ++i) hits[static_cast<std::size_t>(i)]++;
  }
  return std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; });
}

TEST(ThreadPool, ShareCapsChunksOnCallingThread) {
  const int pool = ThreadPool::global().size();
  const auto full = static_cast<std::size_t>(pool);
  // A multiple of every width below, so a width-w loop runs w chunks.
  const std::int64_t n = 64 * static_cast<std::int64_t>(pool);

  {
    // A share of 1 runs the whole range inline, in one call.
    PoolShare share(1);
    const std::vector<Chunk> chunks = record_chunks(1000);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].lo, 0);
    EXPECT_EQ(chunks[0].hi, 1000);
    EXPECT_EQ(chunks[0].thread, std::this_thread::get_id());
  }
  {
    PoolShare share(2);
    const std::vector<Chunk> chunks = record_chunks(1000);
    EXPECT_LE(chunks.size(), 2u);
    EXPECT_TRUE(covers_once(chunks, 1000));
  }
  {
    // Clamped to the pool: no more chunks than threads.
    PoolShare share(pool + 5);
    const std::vector<Chunk> chunks = record_chunks(n);
    EXPECT_EQ(chunks.size(), full);
    EXPECT_TRUE(covers_once(chunks, n));
  }
  {
    // Nested scopes restore the outer cap on exit and on unwind.
    PoolShare outer(2);
    const std::size_t outer_chunks = std::min<std::size_t>(2, full);
    {
      PoolShare inner(1);
      EXPECT_EQ(record_chunks(n).size(), 1u);
    }
    EXPECT_EQ(record_chunks(n).size(), outer_chunks);
    try {
      PoolShare inner(1);
      throw std::runtime_error("unwind");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(record_chunks(n).size(), outer_chunks);
  }
  // With every scope closed the calling thread has the whole pool again.
  EXPECT_EQ(record_chunks(n).size(), full);
  {
    // A share is the opening thread's own: another thread's loops still
    // fork to the pool's full width.
    PoolShare share(1);
    std::size_t other_chunks = 0;
    std::thread other([&] { other_chunks = record_chunks(n).size(); });
    other.join();
    EXPECT_EQ(other_chunks, full);
    EXPECT_EQ(record_chunks(n).size(), 1u);
  }
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(3);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  r.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleDeterministicPerSeed) {
  std::vector<int> a(50), b(50);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  Rng ra(9), rb(9);
  ra.shuffle(a);
  rb.shuffle(b);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- clocks

TEST(SimClock, AccumulatesAcrossThreads) {
  SimClock clock;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 1000; ++j) clock.add(0.001);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_NEAR(clock.seconds(), 4.0, 1e-9);
  clock.reset();
  EXPECT_EQ(clock.seconds(), 0.0);
}

TEST(WallTimer, MeasuresElapsed) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

}  // namespace
}  // namespace pgti
