#ifndef OASIS_TELEMETRY_TRACE_H_
#define OASIS_TELEMETRY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/enabled.h"

namespace oasis {
namespace telemetry {

/// One completed span, matching a chrome://tracing complete ("ph":"X")
/// event: a named, categorised interval on one thread's timeline.
struct TraceEvent {
  std::string name;      ///< Span name ("repeat", "label_batch", ...).
  std::string category;  ///< Layer ("runner", "oracle", "sampler").
  double ts_us = 0.0;    ///< Start, microseconds since the collector's epoch.
  double dur_us = 0.0;   ///< Duration, microseconds.
  int tid = 0;           ///< Collector-assigned thread lane (stable per thread).
};

/// Bounded, mutex-guarded buffer of completed spans. Spans are coarse —
/// per run, per repeat, per trajectory, per served label request and per
/// batched label query of a static sampler; never per step, per label or
/// per oracle round trip — so the one lock a completed span takes (its
/// thread lane is cached per thread) is cheap relative to the work it
/// brackets. The capacity bound keeps a long run's memory flat, counting
/// what it drops. The epoch is the collector's construction time (steady
/// clock).
class TraceCollector {
 public:
  /// A collector holding at most `capacity` events.
  explicit TraceCollector(size_t capacity = kDefaultCapacity);

  /// Appends one completed event; beyond capacity the event is dropped and
  /// counted instead. Also the deterministic-construction entry point for
  /// exporter tests, which append hand-built events.
  void Append(TraceEvent event);

  /// Copies the buffered events in append order.
  std::vector<TraceEvent> Snapshot() const;

  /// Events dropped at the capacity bound so far.
  int64_t dropped() const;

  /// Buffered event count.
  int64_t size() const;

  /// Discards every buffered event and the drop count (capacity and epoch
  /// are kept).
  void Clear();

  /// Microseconds since the collector's epoch (steady clock).
  double NowMicros() const;

  /// Small dense id for the calling thread (assigned on first use, stable
  /// afterwards) — the "tid" lane of this collector's events. The calling
  /// thread caches its lane in this collector, so repeat calls take no lock.
  int CurrentThreadLane();

  /// Default event capacity (per collector).
  static constexpr size_t kDefaultCapacity = 1 << 18;

 private:
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  /// Process-unique id keying the per-thread lane cache: a collector built
  /// where a destroyed one lived must not inherit its cached lanes.
  const uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  int64_t dropped_ = 0;
  std::map<std::thread::id, int> thread_lanes_;
};

/// The process-wide collector the TELEMETRY_SPAN macro appends into and the
/// apps export from.
TraceCollector& DefaultTraceCollector();

/// RAII span: starts timing at construction, appends one TraceEvent to
/// DefaultTraceCollector() at destruction. A span constructed while
/// telemetry is disabled is inert (one relaxed load); `name` and `category`
/// must be string literals (stored unowned until the event is built).
class ScopedSpan {
 public:
  /// Opens the span (no-op when telemetry is off).
  ScopedSpan(const char* name, const char* category);
  /// Closes the span and records it (no-op when inert).
  ~ScopedSpan();

  /// Non-copyable: the span closes exactly once.
  ScopedSpan(const ScopedSpan&) = delete;
  /// Non-assignable (see the copy constructor).
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  double start_us_ = 0.0;
  bool active_ = false;
};

}  // namespace telemetry
}  // namespace oasis

#endif  // OASIS_TELEMETRY_TRACE_H_
