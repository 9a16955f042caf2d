#include "oracle/retry_policy.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "oracle/fault_injecting_oracle.h"
#include "oracle/remote_oracle.h"
#include "telemetry/telemetry.h"

namespace oasis {

namespace {

/// Cap on each breaker's transition log: the earliest transitions — the ones
/// that explain how the breaker first tripped — are kept, later thrash is
/// only counted by the registry.
constexpr size_t kMaxBreakerTransitions = 4096;

/// Registry-side mirrors of the retry counters, shared by every instance.
struct RetryMetrics {
  telemetry::Counter& attempts;
  telemetry::Counter& retries;
  telemetry::Counter& give_ups;
  telemetry::Counter& fast_fails;
  telemetry::Counter& backoff_ns;
};

RetryMetrics& Metrics() {
  telemetry::MetricRegistry& registry = telemetry::DefaultRegistry();
  static RetryMetrics metrics{
      registry.AddCounter("oasis_oracle_attempts_total",
                          "Inner TryLabelBatch attempts issued by the retry "
                          "layer (first tries and retries)."),
      registry.AddCounter("oasis_oracle_retries_total",
                          "Attempts beyond each call's first."),
      registry.AddCounter("oasis_oracle_give_ups_total",
                          "Retry calls that exhausted the policy or hit the "
                          "overall deadline."),
      registry.AddCounter("oasis_oracle_breaker_fast_fails_total",
                          "Calls rejected immediately by an open circuit "
                          "breaker."),
      registry.AddCounter("oasis_oracle_backoff_ns_total",
                          "Simulated nanoseconds spent in backoff waits."),
  };
  return metrics;
}

}  // namespace

const RemoteOracle* FindRemoteOracle(const Oracle* oracle) {
  while (oracle != nullptr) {
    if (const auto* remote = dynamic_cast<const RemoteOracle*>(oracle)) {
      return remote;
    }
    if (const auto* retrying = dynamic_cast<const RetryingOracle*>(oracle)) {
      oracle = &retrying->inner();
      continue;
    }
    if (const auto* fault =
            dynamic_cast<const FaultInjectingOracle*>(oracle)) {
      oracle = &fault->inner();
      continue;
    }
    return nullptr;
  }
  return nullptr;
}

CircuitBreaker::CircuitBreaker(int failure_threshold, int64_t cooldown_calls)
    : failure_threshold_(failure_threshold),
      cooldown_calls_(std::max<int64_t>(1, cooldown_calls)) {}

bool CircuitBreaker::Admit(int64_t now_ns) {
  if (failure_threshold_ <= 0) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kHalfOpen:
      // One probe at a time; further calls keep failing fast until the
      // probe's outcome closes or re-opens the breaker.
      return false;
    case State::kOpen:
      if (rejected_since_open_ >= cooldown_calls_) {
        TransitionTo(State::kHalfOpen, now_ns);
        return true;
      }
      ++rejected_since_open_;
      return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(int64_t now_ns) {
  if (failure_threshold_ <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  TransitionTo(State::kClosed, now_ns);
  consecutive_failures_ = 0;
  rejected_since_open_ = 0;
}

void CircuitBreaker::RecordFailure(int64_t now_ns) {
  if (failure_threshold_ <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++consecutive_failures_;
  if (state_ == State::kHalfOpen || consecutive_failures_ >= failure_threshold_) {
    TransitionTo(State::kOpen, now_ns);
    rejected_since_open_ = 0;
  }
}

void CircuitBreaker::TransitionTo(State next, int64_t now_ns) {
  if (state_ == next) return;
  if (transitions_.size() < kMaxBreakerTransitions) {
    transitions_.push_back(Transition{state_, next, now_ns});
  }
  state_ = next;
  if (OASIS_TELEMETRY_ON) {
    // One labelled child per destination state: transition rates by edge.
    static telemetry::Counter& to_closed =
        telemetry::DefaultRegistry().AddCounter(
            "oasis_oracle_breaker_transitions_total",
            "Circuit breaker state transitions, by destination state.",
            {{"to", "closed"}});
    static telemetry::Counter& to_open = telemetry::DefaultRegistry().AddCounter(
        "oasis_oracle_breaker_transitions_total",
        "Circuit breaker state transitions, by destination state.",
        {{"to", "open"}});
    static telemetry::Counter& to_half_open =
        telemetry::DefaultRegistry().AddCounter(
            "oasis_oracle_breaker_transitions_total",
            "Circuit breaker state transitions, by destination state.",
            {{"to", "half_open"}});
    static telemetry::Gauge& state_gauge = telemetry::DefaultRegistry().AddGauge(
        "oasis_oracle_breaker_state",
        "Most recent breaker state (0 closed, 1 open, 2 half-open; last "
        "writer wins across breakers).");
    switch (next) {
      case State::kClosed:
        to_closed.Increment();
        state_gauge.Set(0.0);
        break;
      case State::kOpen:
        to_open.Increment();
        state_gauge.Set(1.0);
        break;
      case State::kHalfOpen:
        to_half_open.Increment();
        state_gauge.Set(2.0);
        break;
    }
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

std::vector<CircuitBreaker::Transition> CircuitBreaker::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

RetryingOracle::RetryingOracle(const Oracle* inner, const RetryPolicy& policy)
    : inner_(inner),
      policy_(policy),
      clock_(FindRemoteOracle(inner)),
      per_attempt_timeout_ns_(static_cast<int64_t>(
          std::llround(policy.per_attempt_timeout_seconds * 1e9))),
      deadline_ns_(static_cast<int64_t>(
          std::llround(policy.overall_deadline_seconds * 1e9))),
      breaker_(policy.breaker_failure_threshold, policy.breaker_cooldown_calls) {
  OASIS_CHECK(inner != nullptr);
  OASIS_CHECK(policy.max_attempts >= 1);
  OASIS_CHECK(policy.initial_backoff_seconds >= 0.0);
  OASIS_CHECK(policy.backoff_multiplier >= 1.0);
  OASIS_CHECK(policy.max_backoff_seconds >= 0.0);
  OASIS_CHECK(policy.jitter_fraction >= 0.0 && policy.jitter_fraction < 1.0);
  OASIS_CHECK(policy.per_attempt_timeout_seconds >= 0.0);
  OASIS_CHECK(policy.overall_deadline_seconds >= 0.0);
}

bool RetryingOracle::Label(int64_t item, Rng& rng) const {
  return inner_->Label(item, rng);
}

void RetryingOracle::LabelBatch(std::span<const int64_t> items, Rng& rng,
                                std::span<uint8_t> out) const {
  inner_->LabelBatch(items, rng, out);
}

int64_t RetryingOracle::BackoffNs(int retry_number) const {
  double seconds = policy_.initial_backoff_seconds;
  for (int i = 1; i < retry_number; ++i) seconds *= policy_.backoff_multiplier;
  seconds = std::min(seconds, policy_.max_backoff_seconds);
  if (policy_.jitter_fraction > 0.0 && seconds > 0.0) {
    Rng jitter = Rng::Fork(policy_.jitter_seed,
                           backoff_draws_.fetch_add(1, std::memory_order_relaxed));
    seconds *= 1.0 + policy_.jitter_fraction * jitter.NextDouble();
  }
  return static_cast<int64_t>(std::llround(seconds * 1e9));
}

Status RetryingOracle::TryLabelBatch(std::span<const int64_t> items, Rng& rng,
                                     std::span<uint8_t> out,
                                     std::span<uint8_t> resolved) const {
  OASIS_DCHECK(items.size() == out.size());
  OASIS_DCHECK(items.size() == resolved.size());
  if (!inner_->fallible()) {
    // No-op decorator over a reliable stack: nothing to retry, nothing to
    // account, and in particular zero overhead beyond this branch.
    inner_->LabelBatch(items, rng, out);
    for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 1;
    return Status::OK();
  }
  for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 0;
  if (items.empty()) return Status::OK();
  // Attempts are timed — and breaker events timestamped — on the stack's
  // simulated clock, so the transition log lines up with the latency model's
  // timeline.
  const auto now_ns = [this]() -> int64_t {
    return clock_ != nullptr ? clock_->simulated_latency_ns() : 0;
  };
  if (!breaker_.Admit(now_ns())) {
    breaker_fast_fails_.fetch_add(1, std::memory_order_relaxed);
    if (OASIS_TELEMETRY_ON) Metrics().fast_fails.Increment();
    return Status::Unavailable("RetryingOracle: circuit breaker open");
  }

  int64_t spent_ns = 0;
  Status last_failure = Status::OK();
  size_t unresolved = items.size();

  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    attempts_.fetch_add(1, std::memory_order_relaxed);
    if (attempt > 1) retries_.fetch_add(1, std::memory_order_relaxed);
    if (OASIS_TELEMETRY_ON) {
      Metrics().attempts.Increment();
      if (attempt > 1) Metrics().retries.Increment();
    }
    // While every item is still pending — the first attempt, any retry of a
    // one-item batch or after a whole-batch failure — (re)request straight
    // into the caller's buffers; after partial progress, re-request ONLY the
    // still-missing items.
    const bool whole_batch = unresolved == items.size();
    std::vector<size_t> pending;
    std::vector<int64_t> sub_items;
    std::vector<uint8_t> sub_out;
    std::vector<uint8_t> sub_resolved;
    if (!whole_batch) {
      pending.reserve(unresolved);
      sub_items.reserve(unresolved);
      for (size_t i = 0; i < items.size(); ++i) {
        if (resolved[i] != 0) continue;
        pending.push_back(i);
        sub_items.push_back(items[i]);
      }
      sub_out.assign(unresolved, 0);
      sub_resolved.assign(unresolved, 0);
    }
    const int64_t clock_before = now_ns();
    Status status =
        whole_batch
            ? inner_->TryLabelBatch(items, rng, out, resolved)
            : inner_->TryLabelBatch(sub_items, rng, sub_out, sub_resolved);
    const int64_t attempt_ns = now_ns() - clock_before;
    spent_ns += attempt_ns;
    int64_t newly_resolved = 0;
    if (per_attempt_timeout_ns_ > 0 && attempt_ns > per_attempt_timeout_ns_) {
      // The response arrived after the caller stopped waiting: discard its
      // labels (the wire time stays charged) and retry.
      if (whole_batch) std::fill(resolved.begin(), resolved.end(), 0);
      status = Status::DeadlineExceeded("RetryingOracle: per-attempt timeout");
    } else if (whole_batch) {
      for (size_t i = 0; i < resolved.size(); ++i) {
        newly_resolved += resolved[i] != 0 ? 1 : 0;
      }
    } else {
      for (size_t j = 0; j < pending.size(); ++j) {
        if (sub_resolved[j] == 0) continue;
        out[pending[j]] = sub_out[j];
        resolved[pending[j]] = 1;
        ++newly_resolved;
      }
    }
    if (attempt > 1) {
      items_recovered_.fetch_add(newly_resolved, std::memory_order_relaxed);
    }
    unresolved -= static_cast<size_t>(newly_resolved);

    if (status.ok() && unresolved == 0) {
      breaker_.RecordSuccess(now_ns());
      return Status::OK();
    }
    // A partial-but-progressing OK response means the service is alive — it
    // resets the breaker; anything else counts as a consecutive failure.
    if (status.ok() && newly_resolved > 0) {
      breaker_.RecordSuccess(now_ns());
    } else {
      breaker_.RecordFailure(now_ns());
    }
    last_failure = status.ok()
                       ? Status::Unavailable(
                             "RetryingOracle: partial batch never completed")
                       : status;
    if (attempt == policy_.max_attempts) break;

    const int64_t wait_ns = BackoffNs(attempt);
    if (deadline_ns_ > 0 && spent_ns + wait_ns > deadline_ns_) {
      give_ups_.fetch_add(1, std::memory_order_relaxed);
      if (OASIS_TELEMETRY_ON) Metrics().give_ups.Increment();
      return Status::DeadlineExceeded(
          "RetryingOracle: overall deadline exceeded after " +
          std::to_string(attempt) + " attempts (" +
          std::to_string(unresolved) + " items unresolved)");
    }
    if (clock_ != nullptr) clock_->ChargeAuxiliaryLatencyNs(wait_ns);
    backoff_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    if (OASIS_TELEMETRY_ON) Metrics().backoff_ns.Add(wait_ns);
    spent_ns += wait_ns;
  }

  give_ups_.fetch_add(1, std::memory_order_relaxed);
  if (OASIS_TELEMETRY_ON) Metrics().give_ups.Increment();
  return Status(last_failure.code(),
                last_failure.message() + " [gave up after " +
                    std::to_string(policy_.max_attempts) + " attempts]");
}

double RetryingOracle::TrueProbability(int64_t item) const {
  return inner_->TrueProbability(item);
}

bool RetryingOracle::deterministic() const { return inner_->deterministic(); }

bool RetryingOracle::labelling_consumes_rng() const {
  return inner_->labelling_consumes_rng();
}

bool RetryingOracle::fallible() const { return inner_->fallible(); }

int64_t RetryingOracle::num_items() const { return inner_->num_items(); }

RetryStats RetryingOracle::stats() const {
  RetryStats stats;
  stats.attempts = attempts_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.give_ups = give_ups_.load(std::memory_order_relaxed);
  stats.breaker_fast_fails =
      breaker_fast_fails_.load(std::memory_order_relaxed);
  stats.backoff_ns = backoff_ns_.load(std::memory_order_relaxed);
  stats.items_recovered = items_recovered_.load(std::memory_order_relaxed);
  stats.breaker_transitions = breaker_.transitions();
  return stats;
}

}  // namespace oasis
