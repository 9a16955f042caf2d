#include "telemetry/trace.h"

#include <atomic>

namespace oasis {
namespace telemetry {

namespace {

/// Source of TraceCollector ids; 0 is never issued, so it marks an empty
/// lane cache.
std::atomic<uint64_t> g_next_collector_id{1};

/// The calling thread's most recent lane lookup: the collector it was for
/// and the lane that collector assigned.
struct LaneCache {
  uint64_t collector_id = 0;
  int lane = 0;
};
thread_local constinit LaneCache tls_lane_cache;

}  // namespace

TraceCollector::TraceCollector(size_t capacity)
    : capacity_(capacity),
      epoch_(std::chrono::steady_clock::now()),
      id_(g_next_collector_id.fetch_add(1, std::memory_order_relaxed)) {}

void TraceCollector::Append(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

int64_t TraceCollector::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

int64_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(events_.size());
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_ = 0;
}

double TraceCollector::NowMicros() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

int TraceCollector::CurrentThreadLane() {
  LaneCache& cache = tls_lane_cache;
  if (cache.collector_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    const int next_lane = static_cast<int>(thread_lanes_.size()) + 1;
    const int lane =
        thread_lanes_.try_emplace(std::this_thread::get_id(), next_lane)
            .first->second;
    cache = LaneCache{id_, lane};
  }
  return cache.lane;
}

TraceCollector& DefaultTraceCollector() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : name_(name), category_(category) {
  if (!Enabled()) return;
  active_ = true;
  start_us_ = DefaultTraceCollector().NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  TraceCollector& collector = DefaultTraceCollector();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.ts_us = start_us_;
  event.dur_us = collector.NowMicros() - start_us_;
  event.tid = collector.CurrentThreadLane();
  collector.Append(std::move(event));
}

}  // namespace telemetry
}  // namespace oasis
