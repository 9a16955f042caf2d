#include "telemetry/metrics.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace oasis {
namespace telemetry {

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

namespace internal {
namespace {

std::mutex g_slot_mutex;
/// Which slots are leased, guarded by g_slot_mutex. The mutex also orders a
/// slot's last update by its old owner before the first by its next owner,
/// so a reused slot's cells keep accumulating exactly.
bool g_slot_leased[kMetricSlots];

/// Returns the calling thread's slot to the pool when the thread exits.
/// Separate from tls_metric_slot so the hot-path read stays a plain
/// constant-initialised thread_local with no guard or destructor check.
struct SlotLease {
  int slot = kSharedMetricSlot;
  ~SlotLease() {
    // Updates from later thread-exit destructors go to the shared cell: the
    // slot may already belong to another thread.
    tls_metric_slot = kSharedMetricSlot;
    if (slot == kSharedMetricSlot) return;
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    g_slot_leased[slot] = false;
  }
};

thread_local SlotLease tls_slot_lease;

}  // namespace

int AcquireMetricSlot() {
  int slot = kSharedMetricSlot;
  {
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    for (int i = 0; i < kMetricSlots; ++i) {
      if (!g_slot_leased[i]) {
        g_slot_leased[i] = true;
        slot = i;
        break;
      }
    }
  }
  tls_slot_lease.slot = slot;
  tls_metric_slot = slot;
  return slot;
}

}  // namespace internal

int64_t Counter::value() const {
  int64_t total = 0;
  for (const internal::MetricLine& cell : cells_) {
    total += cell.words[0].load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (internal::MetricLine& cell : cells_) {
    cell.words[0].store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      lines_per_slot_((kFirstBinWord + upper_bounds_.size() + 1 + 7) / 8),
      lines_(std::make_unique<internal::MetricLine[]>(
          (internal::kMetricSlots + 1) * lines_per_slot_)) {
  for (size_t i = 0; i + 1 < upper_bounds_.size(); ++i) {
    OASIS_CHECK(upper_bounds_[i] < upper_bounds_[i + 1]);
  }
}

void Histogram::Observe(double value) {
  const size_t bin = static_cast<size_t>(
      std::upper_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  // upper_bound yields the first bound > value; Prometheus buckets are
  // le-inclusive, so step back when the value sits exactly on a bound.
  size_t index = bin;
  if (bin > 0 && upper_bounds_[bin - 1] == value) index = bin - 1;
  const int slot = internal::MetricSlot();
  internal::AddToCell(Word(slot, kFirstBinWord + index), slot, 1);
  internal::AddToCell(Word(slot, kCountWord), slot, 1);
  std::atomic<int64_t>& sum = Word(slot, kSumWord);
  int64_t bits = sum.load(std::memory_order_relaxed);
  if (slot != internal::kSharedMetricSlot) {
    sum.store(std::bit_cast<int64_t>(std::bit_cast<double>(bits) + value),
              std::memory_order_relaxed);
    return;
  }
  while (!sum.compare_exchange_weak(
      bits, std::bit_cast<int64_t>(std::bit_cast<double>(bits) + value),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::SumWord(size_t word) const {
  int64_t total = 0;
  for (int slot = 0; slot <= internal::kMetricSlots; ++slot) {
    total += Word(slot, word).load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (int slot = 0; slot <= internal::kMetricSlots; ++slot) {
    total += std::bit_cast<double>(
        Word(slot, kSumWord).load(std::memory_order_relaxed));
  }
  return total;
}

void Histogram::Reset() {
  const size_t lines = (internal::kMetricSlots + 1) * lines_per_slot_;
  for (size_t line = 0; line < lines; ++line) {
    for (std::atomic<int64_t>& word : lines_[line].words) {
      word.store(0, std::memory_order_relaxed);
    }
  }
}

/// One (label set -> metric instance) entry of a family. Exactly one of the
/// three value members is live, per the family's type.
struct MetricRegistry::Child {
  LabelSet labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

/// All children sharing one metric name; fixes the name's type, help string
/// and (histograms) bucket bounds at first registration.
struct MetricRegistry::Family {
  std::string name;
  std::string help;
  MetricType type;
  std::vector<double> histogram_bounds;
  std::vector<std::unique_ptr<Child>> children;
};

MetricRegistry::MetricRegistry() = default;
MetricRegistry::~MetricRegistry() = default;

MetricRegistry::Family& MetricRegistry::FamilyFor(const std::string& name,
                                                  const std::string& help,
                                                  MetricType type) {
  for (const std::unique_ptr<Family>& family : families_) {
    if (family->name == name) {
      OASIS_CHECK(family->type == type);  // One name, one type — ever.
      return *family;
    }
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->type = type;
  families_.push_back(std::move(family));
  return *families_.back();
}

MetricRegistry::Child* MetricRegistry::ChildWithLabels(const Family& family,
                                                       const LabelSet& labels) {
  for (const std::unique_ptr<Child>& child : family.children) {
    if (child->labels == labels) return child.get();
  }
  return nullptr;
}

Counter& MetricRegistry::AddCounter(const std::string& name,
                                    const std::string& help) {
  return AddCounter(name, help, LabelSet{});
}

Counter& MetricRegistry::AddCounter(const std::string& name,
                                    const std::string& help,
                                    const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = FamilyFor(name, help, MetricType::kCounter);
  if (Child* existing = ChildWithLabels(family, labels)) {
    return *existing->counter;
  }
  auto child = std::make_unique<Child>();
  child->labels = labels;
  child->counter = std::make_unique<Counter>();
  family.children.push_back(std::move(child));
  return *family.children.back()->counter;
}

Gauge& MetricRegistry::AddGauge(const std::string& name,
                                const std::string& help) {
  return AddGauge(name, help, LabelSet{});
}

Gauge& MetricRegistry::AddGauge(const std::string& name,
                                const std::string& help,
                                const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = FamilyFor(name, help, MetricType::kGauge);
  if (Child* existing = ChildWithLabels(family, labels)) {
    return *existing->gauge;
  }
  auto child = std::make_unique<Child>();
  child->labels = labels;
  child->gauge = std::make_unique<Gauge>();
  family.children.push_back(std::move(child));
  return *family.children.back()->gauge;
}

Histogram& MetricRegistry::AddHistogram(const std::string& name,
                                        const std::string& help,
                                        std::vector<double> upper_bounds) {
  return AddHistogram(name, help, std::move(upper_bounds), LabelSet{});
}

Histogram& MetricRegistry::AddHistogram(const std::string& name,
                                        const std::string& help,
                                        std::vector<double> upper_bounds,
                                        const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = FamilyFor(name, help, MetricType::kHistogram);
  if (family.children.empty()) {
    family.histogram_bounds = upper_bounds;
  } else {
    // Every child of a histogram family shares one bucket layout.
    OASIS_CHECK(family.histogram_bounds == upper_bounds);
  }
  if (Child* existing = ChildWithLabels(family, labels)) {
    return *existing->histogram;
  }
  auto child = std::make_unique<Child>();
  child->labels = labels;
  child->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  family.children.push_back(std::move(child));
  return *family.children.back()->histogram;
}

const MetricRegistry::Child* MetricRegistry::FindChild(
    const std::string& name, MetricType type, const LabelSet& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Family>& family : families_) {
    if (family->name != name) continue;
    if (family->type != type) return nullptr;
    return ChildWithLabels(*family, labels);
  }
  return nullptr;
}

const Counter* MetricRegistry::FindCounter(const std::string& name,
                                           const LabelSet& labels) const {
  const Child* child = FindChild(name, MetricType::kCounter, labels);
  return child != nullptr ? child->counter.get() : nullptr;
}

const Gauge* MetricRegistry::FindGauge(const std::string& name,
                                       const LabelSet& labels) const {
  const Child* child = FindChild(name, MetricType::kGauge, labels);
  return child != nullptr ? child->gauge.get() : nullptr;
}

const Histogram* MetricRegistry::FindHistogram(const std::string& name,
                                               const LabelSet& labels) const {
  const Child* child = FindChild(name, MetricType::kHistogram, labels);
  return child != nullptr ? child->histogram.get() : nullptr;
}

int64_t MetricRegistry::CounterFamilyTotal(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Family>& family : families_) {
    if (family->name != name || family->type != MetricType::kCounter) continue;
    int64_t total = 0;
    for (const std::unique_ptr<Child>& child : family->children) {
      total += child->counter->value();
    }
    return total;
  }
  return 0;
}

std::vector<MetricSnapshot> MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  for (const std::unique_ptr<Family>& family : families_) {
    for (const std::unique_ptr<Child>& child : family->children) {
      MetricSnapshot snap;
      snap.name = family->name;
      snap.help = family->help;
      snap.type = family->type;
      snap.labels = child->labels;
      switch (family->type) {
        case MetricType::kCounter:
          snap.counter_value = child->counter->value();
          break;
        case MetricType::kGauge:
          snap.gauge_value = child->gauge->value();
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *child->histogram;
          snap.bucket_bounds.resize(h.num_buckets());
          snap.bucket_counts.resize(h.num_buckets());
          for (size_t i = 0; i < h.num_buckets(); ++i) {
            snap.bucket_bounds[i] = h.upper_bound(i);
            snap.bucket_counts[i] = h.bucket_count(i);
          }
          snap.overflow_count = h.overflow_count();
          snap.total_count = h.count();
          snap.sum = h.sum();
          break;
        }
      }
      out.push_back(std::move(snap));
    }
  }
  return out;
}

void MetricRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Family>& family : families_) {
    for (const std::unique_ptr<Child>& child : family->children) {
      switch (family->type) {
        case MetricType::kCounter:
          child->counter->Reset();
          break;
        case MetricType::kGauge:
          child->gauge->Reset();
          break;
        case MetricType::kHistogram:
          child->histogram->Reset();
          break;
      }
    }
  }
}

MetricRegistry& DefaultRegistry() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace telemetry
}  // namespace oasis
