#include "trace.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace pgti::benchmark {

SpanBuffer::SpanBuffer(int tid, std::size_t capacity) : tid_(tid), capacity_(capacity) {
  spans_.reserve(capacity);
}

std::int32_t SpanBuffer::open(const char* name, Clock::time_point start,
                              std::int64_t arg, std::int32_t parent) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, start, start, parent, arg});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanBuffer::close(std::int32_t index, Clock::time_point end) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end = end;
}

void write_chrome_trace(const std::string& path, Clock::time_point origin,
                        const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanBuffer* b : buffers) {
    for (std::size_t i = 0; i < b->spans().size(); ++i) {
      const Span& s = b->spans()[i];
      const double ts = std::chrono::duration<double, std::micro>(s.start - origin).count();
      const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                    "\"arg\":%lld}}",
                    first ? "" : ",", s.name, b->tid(), ts, dur, i, s.parent,
                    static_cast<long long>(s.arg));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace pgti::benchmark
