#include "runtime/memory_tracker.h"

#include <algorithm>
#include <sstream>

namespace pgti {

OutOfMemoryError::OutOfMemoryError(const std::string& space, std::size_t requested,
                                   std::size_t in_use, std::size_t limit)
    : std::runtime_error("out of memory in space '" + space + "': requested " +
                         format_bytes(static_cast<double>(requested)) + ", in use " +
                         format_bytes(static_cast<double>(in_use)) + ", limit " +
                         format_bytes(static_cast<double>(limit))),
      requested_(requested),
      in_use_(in_use),
      limit_(limit) {}

MemoryTracker::MemoryTracker() {
  Space host;
  host.name = "host";
  spaces_.push_back(std::move(host));
}

MemoryTracker& MemoryTracker::instance() {
  static MemoryTracker tracker;
  return tracker;
}

MemorySpaceId MemoryTracker::register_space(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spaces_.size(); ++i) {
    if (spaces_[i].name == name) return static_cast<MemorySpaceId>(i);
  }
  Space s;
  s.name = name;
  spaces_.push_back(std::move(s));
  return static_cast<MemorySpaceId>(spaces_.size() - 1);
}

void MemoryTracker::set_limit(MemorySpaceId space, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  spaces_.at(static_cast<std::size_t>(space)).limit = bytes;
}

void MemoryTracker::on_alloc(MemorySpaceId space, std::size_t bytes, bool from_heap) {
  std::lock_guard<std::mutex> lock(mu_);
  Space& s = spaces_.at(static_cast<std::size_t>(space));
  if (s.limit != 0 && s.current + bytes > s.limit) {
    throw OutOfMemoryError(s.name, bytes, s.current, s.limit);
  }
  s.current += bytes;
  s.peak = std::max(s.peak, s.current);
  ++s.alloc_count;
  if (from_heap) {
    ++s.heap_alloc_count;
    ++heap_allocs_total_;
  }
}

void MemoryTracker::on_free(MemorySpaceId space, std::size_t bytes) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  Space& s = spaces_[static_cast<std::size_t>(space)];
  s.current = bytes > s.current ? 0 : s.current - bytes;
}

std::size_t MemoryTracker::current(MemorySpaceId space) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spaces_.at(static_cast<std::size_t>(space)).current;
}

std::size_t MemoryTracker::peak(MemorySpaceId space) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spaces_.at(static_cast<std::size_t>(space)).peak;
}

MemorySpaceStats MemoryTracker::stats(MemorySpaceId space) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Space& s = spaces_.at(static_cast<std::size_t>(space));
  return MemorySpaceStats{s.name,  s.current,      s.peak,
                          s.limit, s.alloc_count, s.heap_alloc_count};
}

void MemoryTracker::reset_peak(MemorySpaceId space) {
  std::lock_guard<std::mutex> lock(mu_);
  Space& s = spaces_.at(static_cast<std::size_t>(space));
  s.peak = s.current;
}

void MemoryTracker::sample(MemorySpaceId space, double progress, const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  Space& s = spaces_.at(static_cast<std::size_t>(space));
  s.timeline.push_back(MemorySample{progress, s.current, label});
}

std::vector<MemorySample> MemoryTracker::timeline(MemorySpaceId space) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spaces_.at(static_cast<std::size_t>(space)).timeline;
}

void MemoryTracker::clear_timeline(MemorySpaceId space) {
  std::lock_guard<std::mutex> lock(mu_);
  spaces_.at(static_cast<std::size_t>(space)).timeline.clear();
}

std::uint64_t MemoryTracker::heap_allocs_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heap_allocs_total_;
}

ScopedPeakWatch::ScopedPeakWatch(MemorySpaceId space) : space_(space) {
  MemoryTracker::instance().reset_peak(space_);
  base_ = MemoryTracker::instance().current(space_);
}

std::size_t ScopedPeakWatch::peak_bytes() const {
  return MemoryTracker::instance().peak(space_);
}

std::string format_bytes(double bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1000.0 && u < 4) {
    bytes /= 1000.0;
    ++u;
  }
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << bytes << " " << units[u];
  return os.str();
}

}  // namespace pgti
