// Span recording for the traced runs.  Each thread that records owns a
// SpanBuffer whose storage is reserved before the run starts, so
// recording a span never allocates; buffers are written out as
// Chrome-trace JSON ("X" events, one track per tid) when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace pgti::benchmark {

struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::int64_t arg = -1;     ///< step number or request id
};

class SpanBuffer {
 public:
  SpanBuffer(int tid, std::size_t capacity);

  /// Starts a span that later spans may name as parent; returns its
  /// index (-1 when the buffer is full and the span was dropped).
  std::int32_t open(const char* name, Clock::time_point start, std::int64_t arg,
                    std::int32_t parent = -1);
  void close(std::int32_t index, Clock::time_point end);

  /// Records a finished span.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int32_t parent, std::int64_t arg = -1) {
    close(open(name, start, arg, parent), end);
  }

  int tid() const noexcept { return tid_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t dropped() const noexcept { return dropped_; }

 private:
  int tid_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Writes every span of `buffers` to `path` as one Chrome-trace JSON
/// document, timestamps relative to `origin`.  Throws on I/O failure.
void write_chrome_trace(const std::string& path, Clock::time_point origin,
                        const std::vector<const SpanBuffer*>& buffers);

}  // namespace pgti::benchmark
