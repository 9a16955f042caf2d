#ifndef OASIS_TELEMETRY_METRICS_H_
#define OASIS_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/enabled.h"

namespace oasis {
namespace telemetry {

/// Atomically adds `delta` into `target` (CAS loop; relaxed ordering —
/// telemetry values are statistical, not synchronising).
void AtomicAddDouble(std::atomic<double>& target, double delta);

namespace internal {

/// Number of per-thread metric cells in every Counter and Histogram. Each
/// live thread that updates a metric leases one slot (process-wide, shared by
/// every metric) and is the only writer of that slot's cells; a thread's
/// slot returns to the pool when it exits, so short-lived pools (one
/// ThreadPool per RunErrorCurve call) reuse slots instead of exhausting
/// them. 64 slots cost (64 + 1) * 64 B = ~4 KB per counter.
inline constexpr int kMetricSlots = 64;

/// The cell index of threads that found every slot leased (and of a thread
/// whose lease was already returned during its exit): one cell shared by
/// all of them, updated with atomic read-modify-writes.
inline constexpr int kSharedMetricSlot = kMetricSlots;

/// The calling thread's leased slot; -1 until its first metric update.
inline thread_local constinit int tls_metric_slot = -1;

/// Leases a slot for the calling thread (kSharedMetricSlot when none is
/// free) and arranges its return at thread exit. Slow path of MetricSlot().
int AcquireMetricSlot();

/// The calling thread's cell index in every Counter and Histogram: its own
/// slot (single writer) or kSharedMetricSlot (atomic RMW).
inline int MetricSlot() {
  const int slot = tls_metric_slot;
  return slot >= 0 ? slot : AcquireMetricSlot();
}

/// Adds `delta` to the calling thread's cell: a plain load+store when the
/// thread owns the slot (no other thread writes it), a fetch_add on the
/// shared cell otherwise.
inline void AddToCell(std::atomic<int64_t>& cell, int slot, int64_t delta) {
  if (slot != kSharedMetricSlot) {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  } else {
    cell.fetch_add(delta, std::memory_order_relaxed);
  }
}

/// One cache line of metric words: the unit a slot's cells are padded to,
/// so no two threads' cells share a line.
struct alignas(64) MetricLine {
  std::atomic<int64_t> words[8];
};

}  // namespace internal

/// Monotonically increasing integer metric (Prometheus counter semantics).
/// Each thread adds into its own cache-line cell (internal::MetricSlot), so
/// Increment/Add on a hot path never touch a line another thread writes:
/// a relaxed load and store, no read-modify-write. value() sums the cells:
/// exact once the writers are joined (or otherwise synchronised), a
/// statistical snapshot while they run. Thread-safe; stable address once
/// registered.
class Counter {
 public:
  /// Adds 1.
  void Increment() { Add(1); }
  /// Adds `delta` (>= 0 by convention; not enforced on the hot path).
  void Add(int64_t delta) {
    const int slot = internal::MetricSlot();
    internal::AddToCell(cells_[slot].words[0], slot, delta);
  }
  /// Current value: the sum of every thread's cell.
  int64_t value() const;
  /// Zeroes every cell (snapshot-delta consumers; tests). Meant for
  /// quiescent points: a concurrent Add may land on either side of it.
  void Reset();

 private:
  internal::MetricLine cells_[internal::kMetricSlots + 1];
};

/// Point-in-time floating value (Prometheus gauge semantics): Set for
/// absolute readings (queue depth, live ESS), Add for +/- deltas (repeats in
/// flight). Thread-safe; last writer wins on Set.
///
/// One cell, not per-thread cells like Counter: a Set must replace the whole
/// value, and no gauge site is per step or per label (they are per repeat,
/// pool task, request, session, checkpoint or breaker transition), so the
/// shared line is not a hot-path cost.
class Gauge {
 public:
  /// Replaces the value.
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Adds `delta` (possibly negative).
  void Add(double delta) { AtomicAddDouble(value_, delta); }
  /// Current value.
  double value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the gauge.
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus histogram semantics): cumulative
/// export as `_bucket{le=...}` counts plus `_sum` / `_count`. Like Counter,
/// each thread observes into its own cache-line-padded cell (count, sum and
/// one bin per bucket) and the readers sum the cells. Observe() is one
/// binary search over the (immutable) upper bounds plus three single-writer
/// updates. Bucket bounds are fixed at registration; the overflow (+Inf) bin
/// is implicit.
class Histogram {
 public:
  /// A histogram over `upper_bounds` (strictly increasing, finite; may be
  /// empty, leaving only the +Inf bin). Checked at registration.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Folds one observation into its bucket, the total count and the sum.
  void Observe(double value);

  /// Number of finite buckets (excluding the implicit +Inf bin).
  size_t num_buckets() const { return upper_bounds_.size(); }
  /// Upper bound of finite bucket `i`.
  double upper_bound(size_t i) const { return upper_bounds_[i]; }
  /// Non-cumulative count of finite bucket `i`.
  int64_t bucket_count(size_t i) const { return SumWord(kFirstBinWord + i); }
  /// Count of observations above the last finite bound (the +Inf bin).
  int64_t overflow_count() const {
    return SumWord(kFirstBinWord + upper_bounds_.size());
  }
  /// Total observations.
  int64_t count() const { return SumWord(kCountWord); }
  /// Sum of all observed values (the cells' sums added in slot order).
  double sum() const;
  /// Zeroes every bin, the count and the sum of every cell (bounds are
  /// kept). Meant for quiescent points, like Counter::Reset.
  void Reset();

 private:
  /// Word layout of one slot's cell: the count, the sum (a double's bits),
  /// then upper_bounds_.size() + 1 bins, the last being the +Inf bin.
  static constexpr size_t kCountWord = 0;
  static constexpr size_t kSumWord = 1;
  static constexpr size_t kFirstBinWord = 2;

  std::atomic<int64_t>& Word(int slot, size_t word) const {
    return lines_[static_cast<size_t>(slot) * lines_per_slot_ + word / 8]
        .words[word % 8];
  }
  int64_t SumWord(size_t word) const;

  std::vector<double> upper_bounds_;
  /// Cache lines per slot: enough for the count, the sum and every bin.
  size_t lines_per_slot_;
  /// (kMetricSlots + 1) * lines_per_slot_ lines, slot-major.
  std::unique_ptr<internal::MetricLine[]> lines_;
};

/// One labelled child's key: `{key, value}` pairs in registration order
/// (empty for an unlabelled metric). Kept as written — exporters emit labels
/// in exactly this order.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Kind discriminator of a registry entry.
enum class MetricType {
  kCounter,    ///< Counter.
  kGauge,      ///< Gauge.
  kHistogram,  ///< Histogram.
};

/// Point-in-time copy of one registry child, as consumed by the exporters
/// (src/telemetry/export.h) and the heartbeat.
struct MetricSnapshot {
  std::string name;       ///< Family name ("oasis_sampler_steps_total").
  std::string help;       ///< One-line meaning (the family's help string).
  MetricType type;        ///< Which of the value fields below is live.
  LabelSet labels;        ///< The child's labels (empty when unlabelled).
  int64_t counter_value = 0;  ///< kCounter value.
  double gauge_value = 0.0;   ///< kGauge value.
  /// kHistogram: finite bucket upper bounds...
  std::vector<double> bucket_bounds;
  /// ...their per-bucket (non-cumulative) counts, parallel to the bounds...
  std::vector<int64_t> bucket_counts;
  /// ...the +Inf overflow count...
  int64_t overflow_count = 0;
  /// ...the total observation count...
  int64_t total_count = 0;
  /// ...and the sum of all observed values.
  double sum = 0.0;
};

/// Registry of metric families. Registration (Add*) takes a mutex and is
/// idempotent on (name, labels) — instrumentation sites register through
/// function-local statics, so each site pays the lock once; the returned
/// references stay valid for the registry's lifetime and all value updates
/// are lock-free. Families group children sharing a name; a family's type,
/// help string and (for histograms) bucket bounds are fixed by its first
/// registration (re-registering with a conflicting type or bounds crashes —
/// programmer error).
class MetricRegistry {
 public:
  /// An empty registry.
  MetricRegistry();
  /// Destroys the registry and every metric it owns (out of line — Family is
  /// incomplete here). References returned by Add* die with it.
  ~MetricRegistry();
  /// Non-copyable: instrumentation sites hold references into the registry.
  MetricRegistry(const MetricRegistry&) = delete;
  /// Non-assignable (see the copy constructor).
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Registers (or finds) the unlabelled counter `name`.
  Counter& AddCounter(const std::string& name, const std::string& help);
  /// Registers (or finds) the `labels` child of counter family `name`.
  Counter& AddCounter(const std::string& name, const std::string& help,
                      const LabelSet& labels);
  /// Registers (or finds) the unlabelled gauge `name`.
  Gauge& AddGauge(const std::string& name, const std::string& help);
  /// Registers (or finds) the `labels` child of gauge family `name`.
  Gauge& AddGauge(const std::string& name, const std::string& help,
                  const LabelSet& labels);
  /// Registers (or finds) the unlabelled histogram `name` over
  /// `upper_bounds` (see Histogram).
  Histogram& AddHistogram(const std::string& name, const std::string& help,
                          std::vector<double> upper_bounds);
  /// Registers (or finds) the `labels` child of histogram family `name`.
  Histogram& AddHistogram(const std::string& name, const std::string& help,
                          std::vector<double> upper_bounds,
                          const LabelSet& labels);

  /// The registered counter child, or nullptr when `name`/`labels` is absent
  /// or not a counter. Never registers.
  const Counter* FindCounter(const std::string& name,
                             const LabelSet& labels = {}) const;
  /// The registered gauge child, or nullptr (see FindCounter).
  const Gauge* FindGauge(const std::string& name,
                         const LabelSet& labels = {}) const;
  /// The registered histogram child, or nullptr (see FindCounter).
  const Histogram* FindHistogram(const std::string& name,
                                 const LabelSet& labels = {}) const;

  /// Sum of counter family `name` across all its children (0 when absent) —
  /// the heartbeat's view of labelled counters.
  int64_t CounterFamilyTotal(const std::string& name) const;

  /// Copies every child's current value, family by family in registration
  /// order (children in their own registration order within each family).
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every registered value (registration is kept). For tests and
  /// delta-based consumers; concurrent updaters may interleave.
  void ResetValues();

 private:
  struct Child;
  struct Family;

  Family& FamilyFor(const std::string& name, const std::string& help,
                    MetricType type);
  static Child* ChildWithLabels(const Family& family, const LabelSet& labels);
  const Child* FindChild(const std::string& name, MetricType type,
                         const LabelSet& labels) const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;
};

/// The process-wide registry every instrumentation site registers into.
/// Exporters, the heartbeat and the apps snapshot from here.
MetricRegistry& DefaultRegistry();

}  // namespace telemetry
}  // namespace oasis

#endif  // OASIS_TELEMETRY_METRICS_H_
