#ifndef OASIS_TELEMETRY_ENABLED_H_
#define OASIS_TELEMETRY_ENABLED_H_

#include <atomic>

namespace oasis {

/// \namespace oasis::telemetry
/// Observe-only runtime telemetry: a lock-free metrics registry (counters,
/// gauges, fixed-bucket histograms, labelled families), lightweight trace
/// spans feeding chrome://tracing JSON, and exporters (Prometheus text, JSON
/// snapshot, stderr heartbeat). Everything here is side-channel only — no
/// telemetry call may touch an RNG, a label, or any estimator state, so
/// results are bit-identical with telemetry on or off (see docs/TELEMETRY.md
/// for the determinism contract and the metric catalogue).
namespace telemetry {

namespace internal {
/// The process-wide runtime kill switch backing Enabled(). Off by default:
/// a build that never calls SetEnabled(true) pays one relaxed atomic load
/// per instrumentation site and nothing else.
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Whether telemetry collection is on. All instrumentation sites check this
/// before touching any metric; when false the site reduces to this one
/// relaxed load. Compile with OASIS_TELEMETRY=OFF (the OASIS_TELEMETRY_DISABLED
/// macro) to remove even that.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns telemetry collection on or off, process-wide. Safe to call from any
/// thread at any time; in-flight increments on the old setting are harmless
/// (telemetry is observe-only).
inline void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

/// RAII toggle of the runtime kill switch: enables (or disables) telemetry
/// for the enclosing scope and restores the previous setting on exit. Used
/// by the runner's RunnerOptions::telemetry wiring, tests and benchmarks.
class ScopedEnable {
 public:
  /// Sets the global switch to `enabled`, remembering the previous value.
  explicit ScopedEnable(bool enabled) : previous_(Enabled()) {
    SetEnabled(enabled);
  }
  /// Restores the switch as it was at construction.
  ~ScopedEnable() { SetEnabled(previous_); }

  /// Non-copyable: the restore-on-destruction side effect must fire once.
  ScopedEnable(const ScopedEnable&) = delete;
  /// Non-assignable (see the copy constructor).
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

}  // namespace telemetry
}  // namespace oasis

#endif  // OASIS_TELEMETRY_ENABLED_H_
