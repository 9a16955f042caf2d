#ifndef OASIS_ORACLE_RETRY_POLICY_H_
#define OASIS_ORACLE_RETRY_POLICY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "oracle/oracle.h"

namespace oasis {

/// Forward declaration (remote_oracle.h): the simulated clock backoff and
/// attempt latencies are charged into when one is present in the stack.
class RemoteOracle;

/// Tunables of a RetryingOracle: bounded exponential backoff with
/// deterministic jitter, per-attempt and overall deadlines, and a circuit
/// breaker. All times are simulated seconds, charged into the underlying
/// RemoteOracle's clock when one is in the stack (see docs/FAULT_MODEL.md).
struct RetryPolicy {
  /// Total attempts per batch, including the first (>= 1). Exhausting them
  /// gives up with the last failure (or kUnavailable for a never-failing
  /// partial batch that stopped making progress).
  int max_attempts = 4;

  /// Backoff before the first retry, in simulated seconds.
  double initial_backoff_seconds = 1.0;

  /// Multiplier applied to the backoff after every retry (>= 1).
  double backoff_multiplier = 2.0;

  /// Upper bound on a single backoff wait, in simulated seconds.
  double max_backoff_seconds = 60.0;

  /// Multiplicative backoff jitter: each wait is scaled by
  /// (1 + jitter_fraction * u) with u ~ U[0, 1) from Rng::Fork(jitter_seed,
  /// wait counter). With one caller per instance (the experiment runner's
  /// per-repeat arrangement) the wait sequence — and hence the simulated
  /// clock — is a pure function of the policy and the fault schedule. Must
  /// lie in [0, 1).
  double jitter_fraction = 0.0;

  /// Seed of the jitter streams (see jitter_fraction).
  uint64_t jitter_seed = 0xbac0ffULL;

  /// When > 0: an attempt whose simulated latency exceeds this many seconds
  /// is treated as kDeadlineExceeded and its labels are discarded (they
  /// arrived after the caller stopped waiting; the wire time stays charged).
  /// Measurable only with a RemoteOracle in the stack; 0 disables.
  double per_attempt_timeout_seconds = 0.0;

  /// When > 0: once the simulated time spent in one TryLabelBatch call
  /// (attempts + backoff waits) would exceed this, the call gives up with
  /// kDeadlineExceeded instead of backing off again. 0 disables.
  double overall_deadline_seconds = 0.0;

  /// Circuit breaker: open after this many consecutive failed attempts
  /// (fast-failing subsequent calls), then admit a half-open probe after
  /// `breaker_cooldown_calls` rejected calls. 0 disables the breaker.
  int breaker_failure_threshold = 0;

  /// Calls rejected while open before a half-open probe is admitted (>= 1
  /// when the breaker is enabled).
  int64_t breaker_cooldown_calls = 8;
};

/// Classic closed -> open -> half-open circuit breaker, with the cooldown
/// measured in rejected calls rather than wall-clock (the repo's oracle time
/// is simulated, so "calls" is the monotone clock every caller shares).
/// Thread-safe; a disabled breaker (threshold 0) admits everything.
class CircuitBreaker {
 public:
  /// Observable breaker state (see State()).
  enum class State {
    kClosed,    ///< Normal operation; calls flow through.
    kOpen,      ///< Tripped; calls fail fast until the cooldown elapses.
    kHalfOpen,  ///< Probe admitted; the next outcome closes or re-opens.
  };

  /// One recorded state change. `sim_ns` is the caller-supplied timestamp of
  /// the event — RetryingOracle passes its RemoteOracle's simulated clock, so
  /// transition times line up with the latency model's timeline (0 when no
  /// clock is in the stack).
  struct Transition {
    State from = State::kClosed;  ///< State before the change.
    State to = State::kClosed;    ///< State after the change.
    int64_t sim_ns = 0;           ///< Simulated-clock timestamp of the change.
  };

  /// A breaker that opens after `failure_threshold` consecutive failures
  /// (0 = never) and half-opens after `cooldown_calls` rejections.
  CircuitBreaker(int failure_threshold, int64_t cooldown_calls);

  /// Returns whether a call may proceed. While open, counts the rejection
  /// and — once the cooldown is spent — transitions to half-open, admitting
  /// exactly one probe call. `now_ns` timestamps any resulting transition.
  bool Admit(int64_t now_ns = 0);

  /// Reports a successful (or partially successful) attempt: closes the
  /// breaker and zeroes the consecutive-failure count. `now_ns` timestamps
  /// any resulting transition.
  void RecordSuccess(int64_t now_ns = 0);

  /// Reports a failed attempt: bumps the consecutive-failure count and opens
  /// the breaker at the threshold (a half-open probe failure re-opens
  /// immediately). `now_ns` timestamps any resulting transition.
  void RecordFailure(int64_t now_ns = 0);

  /// Current state (for tests/diagnostics).
  State state() const;

  /// The state changes recorded so far, in order (capped at an internal
  /// limit — a breaker thrashing thousands of times is a diagnosis in
  /// itself; the earliest transitions are the ones kept).
  std::vector<Transition> transitions() const;

 private:
  /// Moves to `next` under the held mutex, recording the transition (and its
  /// registry mirrors) when the state actually changes.
  void TransitionTo(State next, int64_t now_ns);

  const int failure_threshold_;
  const int64_t cooldown_calls_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int64_t rejected_since_open_ = 0;
  /// Transition log (guarded by mutex_; see transitions()).
  std::vector<Transition> transitions_;
};

/// Counters of a RetryingOracle's recovery activity (see
/// RetryingOracle::stats()).
struct RetryStats {
  int64_t attempts = 0;           ///< Inner TryLabelBatch attempts issued.
  int64_t retries = 0;            ///< Attempts beyond each call's first.
  int64_t give_ups = 0;           ///< Calls that exhausted policy or deadline.
  int64_t breaker_fast_fails = 0; ///< Calls rejected by the open breaker.
  int64_t backoff_ns = 0;         ///< Simulated nanoseconds spent backing off.
  int64_t items_recovered = 0;    ///< Items resolved only by a retry.
  /// Breaker state changes in order, timestamped on the stack's simulated
  /// clock (see CircuitBreaker::Transition).
  std::vector<CircuitBreaker::Transition> breaker_transitions;
};

/// Decorator that makes a fallible oracle stack reliable-until-give-up:
/// failed or partial TryLabelBatch attempts are retried with exponential
/// backoff (re-requesting ONLY the still-unresolved items), guarded by
/// per-attempt/overall deadlines and a circuit breaker. Compose it outermost
/// — over RemoteOracle over FaultInjectingOracle — so retried trips are
/// re-priced by the latency model and backoff time lands on the same
/// simulated clock (ChargeAuxiliaryLatencyNs).
///
/// Because retries only ever re-request missing items and resolved labels
/// are delegated verbatim, a run whose faults are all transient produces
/// bit-identical labels — and, through LabelCache's exact accounting,
/// bit-identical error curves — to a fault-free run (tested).
///
/// Thread-safety: shareable like any Oracle (atomic counters, mutex-guarded
/// breaker); the backoff jitter sequence is deterministic per instance under
/// a single caller (see RetryPolicy::jitter_fraction).
class RetryingOracle : public Oracle {
 public:
  /// Wraps `inner` (non-null, must outlive this decorator) under `policy`
  /// (validated: max_attempts >= 1, multiplier >= 1, non-negative times,
  /// jitter in [0, 1)). The stack below `inner` is walked for a RemoteOracle
  /// to charge backoff time into.
  RetryingOracle(const Oracle* inner, const RetryPolicy& policy);

  /// Delegates to the inner oracle's infallible Label (no retry semantics —
  /// the infallible path cannot fail).
  bool Label(int64_t item, Rng& rng) const override;

  /// Delegates to the inner oracle's infallible LabelBatch (see Label).
  void LabelBatch(std::span<const int64_t> items, Rng& rng,
                  std::span<uint8_t> out) const override;

  /// The retry loop described on the class. Returns OK with everything
  /// resolved, or the final failure (kUnavailable / kDeadlineExceeded /
  /// whatever the stack reported) with every resolved label still valid in
  /// `out` — the caller may commit the partial progress.
  Status TryLabelBatch(std::span<const int64_t> items, Rng& rng,
                       std::span<uint8_t> out,
                       std::span<uint8_t> resolved) const override;

  /// The inner oracle's true probability (reliability wrapping changes
  /// availability, not ground truth).
  double TrueProbability(int64_t item) const override;

  /// Forwards the inner oracle's determinism.
  bool deterministic() const override;

  /// Forwards the inner oracle's RNG discipline (retry decisions never touch
  /// the caller's RNG).
  bool labelling_consumes_rng() const override;

  /// Forwards the inner oracle's fallibility: retrying an infallible stack
  /// is a no-op decorator.
  bool fallible() const override;

  /// The inner oracle's item count.
  int64_t num_items() const override;

  /// The wrapped oracle (used by stack-walking helpers, e.g.
  /// FindRemoteOracle).
  const Oracle& inner() const { return *inner_; }

  /// The policy in force.
  const RetryPolicy& policy() const { return policy_; }

  /// The breaker (for tests/diagnostics of its state machine).
  const CircuitBreaker& breaker() const { return breaker_; }

  /// Snapshot of the recovery counters so far (per-counter atomic).
  RetryStats stats() const;

 private:
  /// Simulated backoff before retry number `retry_number` (1-based), with
  /// the policy's cap and deterministic jitter applied.
  int64_t BackoffNs(int retry_number) const;

  const Oracle* inner_;
  RetryPolicy policy_;
  /// The RemoteOracle discovered beneath (nullptr when the stack has none):
  /// attempt latencies are measured against — and backoff charged into —
  /// its simulated clock.
  const RemoteOracle* clock_;
  /// The policy's per-attempt timeout and overall deadline in simulated
  /// nanoseconds (0 = disabled), rounded once at construction: the policy
  /// is immutable.
  const int64_t per_attempt_timeout_ns_;
  const int64_t deadline_ns_;
  mutable CircuitBreaker breaker_;
  mutable std::atomic<int64_t> attempts_{0};
  mutable std::atomic<int64_t> retries_{0};
  mutable std::atomic<int64_t> give_ups_{0};
  mutable std::atomic<int64_t> breaker_fast_fails_{0};
  mutable std::atomic<int64_t> backoff_ns_{0};
  mutable std::atomic<int64_t> items_recovered_{0};
  mutable std::atomic<uint64_t> backoff_draws_{0};
};

/// Walks a decorator stack (RetryingOracle / FaultInjectingOracle layers)
/// down to the first RemoteOracle, or nullptr when the stack has none. This
/// is how latency/cost accounting stays discoverable — e.g. by RunTrajectory
/// — when the remote oracle is wrapped rather than outermost.
const RemoteOracle* FindRemoteOracle(const Oracle* oracle);

}  // namespace oasis

#endif  // OASIS_ORACLE_RETRY_POLICY_H_
