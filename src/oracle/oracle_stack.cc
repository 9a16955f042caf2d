#include "oracle/oracle_stack.h"

#include <string>
#include <string_view>

#include "common/number_format.h"
#include "common/random.h"

namespace oasis {

namespace {

/// InvalidArgument unless `ok`, naming the option by its struct member and
/// by the `stack_` config key that carries it in config files and on the
/// wire. Every rule is written so that NaN fails it.
Status CheckOption(bool ok, std::string_view field, std::string_view key,
                   std::string_view rule, double value) {
  if (ok) return Status::OK();
  std::string message = "OracleStackBuilder: ";
  message.append(field).append(" (").append(key).append(") must ");
  message.append(rule).append(", got ");
  AppendDouble(value, &message);
  return Status::InvalidArgument(message);
}

bool IsRate(double x) { return x >= 0.0 && x <= 1.0; }
bool IsJitter(double x) { return x >= 0.0 && x < 1.0; }

/// Every option invariant the three decorators' constructors OASIS_CHECK,
/// as a Status, so a bad config or wire request fails cleanly instead of
/// aborting the process.
Status ValidateSpec(const StackSpec& spec) {
  if (const auto& fi = spec.fault_injection) {
    OASIS_RETURN_NOT_OK(CheckOption(
        IsRate(fi->transient_failure_rate),
        "FaultInjectionOptions::transient_failure_rate",
        "stack_fault_transient_rate", "lie in [0, 1]",
        fi->transient_failure_rate));
    OASIS_RETURN_NOT_OK(CheckOption(
        IsRate(fi->timeout_rate), "FaultInjectionOptions::timeout_rate",
        "stack_fault_timeout_rate", "lie in [0, 1]", fi->timeout_rate));
    OASIS_RETURN_NOT_OK(CheckOption(
        IsRate(fi->item_drop_rate), "FaultInjectionOptions::item_drop_rate",
        "stack_fault_item_drop_rate", "lie in [0, 1]", fi->item_drop_rate));
  }
  if (const auto& ro = spec.remote) {
    OASIS_RETURN_NOT_OK(CheckOption(
        ro->round_trip_seconds >= 0.0, "RemoteOracleOptions::round_trip_seconds",
        "stack_remote_round_trip_seconds", "be >= 0", ro->round_trip_seconds));
    OASIS_RETURN_NOT_OK(CheckOption(
        ro->per_item_seconds >= 0.0, "RemoteOracleOptions::per_item_seconds",
        "stack_remote_per_item_seconds", "be >= 0", ro->per_item_seconds));
    OASIS_RETURN_NOT_OK(CheckOption(
        ro->cost_per_label >= 0.0, "RemoteOracleOptions::cost_per_label",
        "stack_remote_cost_per_label", "be >= 0", ro->cost_per_label));
    OASIS_RETURN_NOT_OK(CheckOption(
        IsJitter(ro->jitter_fraction), "RemoteOracleOptions::jitter_fraction",
        "stack_remote_jitter_fraction", "lie in [0, 1)", ro->jitter_fraction));
    OASIS_RETURN_NOT_OK(CheckOption(
        ro->max_items_per_round_trip >= 0,
        "RemoteOracleOptions::max_items_per_round_trip",
        "stack_remote_max_items_per_trip", "be >= 0",
        static_cast<double>(ro->max_items_per_round_trip)));
  }
  if (const auto& rp = spec.retry) {
    OASIS_RETURN_NOT_OK(CheckOption(
        rp->max_attempts >= 1, "RetryPolicy::max_attempts",
        "stack_retry_max_attempts", "be >= 1", rp->max_attempts));
    OASIS_RETURN_NOT_OK(CheckOption(
        rp->initial_backoff_seconds >= 0.0,
        "RetryPolicy::initial_backoff_seconds",
        "stack_retry_initial_backoff_seconds", "be >= 0",
        rp->initial_backoff_seconds));
    OASIS_RETURN_NOT_OK(CheckOption(
        rp->backoff_multiplier >= 1.0, "RetryPolicy::backoff_multiplier",
        "stack_retry_backoff_multiplier", "be >= 1", rp->backoff_multiplier));
    OASIS_RETURN_NOT_OK(CheckOption(
        rp->max_backoff_seconds >= 0.0, "RetryPolicy::max_backoff_seconds",
        "stack_retry_max_backoff_seconds", "be >= 0", rp->max_backoff_seconds));
    OASIS_RETURN_NOT_OK(CheckOption(
        IsJitter(rp->jitter_fraction), "RetryPolicy::jitter_fraction",
        "stack_retry_jitter_fraction", "lie in [0, 1)", rp->jitter_fraction));
    OASIS_RETURN_NOT_OK(CheckOption(
        rp->per_attempt_timeout_seconds >= 0.0,
        "RetryPolicy::per_attempt_timeout_seconds",
        "stack_retry_per_attempt_timeout_seconds", "be >= 0",
        rp->per_attempt_timeout_seconds));
    OASIS_RETURN_NOT_OK(CheckOption(
        rp->overall_deadline_seconds >= 0.0,
        "RetryPolicy::overall_deadline_seconds",
        "stack_retry_overall_deadline_seconds", "be >= 0",
        rp->overall_deadline_seconds));
  }
  return Status::OK();
}

}  // namespace

OracleStackBuilder& OracleStackBuilder::FaultInjection(
    const FaultInjectionOptions& options) {
  spec_.fault_injection = options;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::Remote(
    const RemoteOracleOptions& options) {
  spec_.remote = options;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::Retry(const RetryPolicy& policy) {
  spec_.retry = policy;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::ShareLabels(SharedLabelStore* store) {
  store_ = store;
  spec_.share_labels = store != nullptr;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::ForkSeeds(uint64_t stream) {
  fork_stream_ = stream;
  return *this;
}

Result<OracleStack> OracleStackBuilder::Build(const Oracle* base) const {
  if (base == nullptr) {
    return Status::InvalidArgument("OracleStackBuilder: base oracle is null");
  }
  if (spec_.share_labels && !spec_.remote.has_value()) {
    return Status::InvalidArgument(
        "OracleStackBuilder: ShareLabels without a Remote layer (there is no "
        "wire to share)");
  }
  OASIS_RETURN_NOT_OK(ValidateSpec(spec_));
  OracleStack stack;
  stack.spec_ = spec_;
  stack.top_ = base;
  if (stack.spec_.fault_injection.has_value()) {
    if (fork_stream_.has_value()) {
      // Decorrelate fault schedules across sibling stacks while keeping each
      // one a pure function of (options, stream index) — the experiment
      // runner's historical per-repeat arrangement, preserved bit for bit.
      stack.spec_.fault_injection->seed =
          Rng::Fork(stack.spec_.fault_injection->seed, *fork_stream_)
              .NextUint64();
    }
    stack.faulty_ = std::make_unique<FaultInjectingOracle>(
        stack.top_, *stack.spec_.fault_injection);
    stack.top_ = stack.faulty_.get();
  }
  if (stack.spec_.remote.has_value()) {
    if (fork_stream_.has_value()) {
      // Same decorrelation for the latency jitter: identical trip contents in
      // two sibling stacks should not draw identical service times.
      stack.spec_.remote->jitter_seed =
          Rng::Fork(stack.spec_.remote->jitter_seed, *fork_stream_)
              .NextUint64();
    }
    stack.remote_ = std::make_unique<RemoteOracle>(
        stack.top_, *stack.spec_.remote,
        stack.spec_.share_labels ? store_ : nullptr);
    stack.top_ = stack.remote_.get();
  }
  if (stack.spec_.retry.has_value()) {
    stack.retrying_ =
        std::make_unique<RetryingOracle>(stack.top_, *stack.spec_.retry);
    stack.top_ = stack.retrying_.get();
  }
  return stack;
}

}  // namespace oasis
