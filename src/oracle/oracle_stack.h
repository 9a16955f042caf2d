#ifndef OASIS_ORACLE_ORACLE_STACK_H_
#define OASIS_ORACLE_ORACLE_STACK_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/status.h"
#include "oracle/fault_injecting_oracle.h"
#include "oracle/oracle.h"
#include "oracle/remote_oracle.h"
#include "oracle/retry_policy.h"
#include "oracle/shared_label_store.h"

namespace oasis {

/// Declarative description of one oracle decorator stack — which of the
/// repo's three decorators to layer over a base oracle, and with what
/// options. This is the value type that travels through RunnerOptions, the
/// service protocol and config files; OracleStackBuilder turns it into a
/// live stack.
///
/// Layer order is fixed by the fault model (docs/FAULT_MODEL.md) and not
/// configurable: base <- FaultInjecting <- Remote <- Retrying, so retried
/// trips are re-priced by the latency model and backoff lands on the same
/// simulated clock. Unset layers are simply skipped.
struct StackSpec {
  /// When set, splice a FaultInjectingOracle directly over the base oracle
  /// (chaos is injected under the latency model, so every retried trip is
  /// re-priced).
  std::optional<FaultInjectionOptions> fault_injection;
  /// When set, wrap the stack so far in a RemoteOracle pricing every label
  /// under this latency/cost model.
  std::optional<RemoteOracleOptions> remote;
  /// When set, top the stack with a RetryingOracle under this policy — the
  /// layer a LabelCache should then talk to.
  std::optional<RetryPolicy> retry;
  /// With `remote` set: route fetches through the SharedLabelStore handed to
  /// OracleStackBuilder::ShareLabels, so an item fetched by ANY stack over
  /// the same store is never re-fetched over the simulated wire. Ignored
  /// without a remote layer (there is no wire to share).
  bool share_labels = false;

  /// Whether any layer is configured (an empty spec builds a pass-through
  /// stack whose top IS the base oracle).
  bool any() const {
    return fault_injection.has_value() || remote.has_value() ||
           retry.has_value();
  }
};

/// An owned, live oracle decorator stack produced by OracleStackBuilder:
/// the decorators (heap-allocated, so their addresses survive moves) plus
/// typed accessors to each layer. `top()` is the oracle a LabelCache should
/// talk to. The base oracle is NOT owned and must outlive the stack.
class OracleStack {
 public:
  /// The outermost layer — what callers label through. Always valid; equals
  /// the base oracle when the spec configured no layers.
  const Oracle& top() const { return *top_; }

  /// The fault-injection layer, or nullptr when the spec had none.
  const FaultInjectingOracle* fault_injecting() const { return faulty_.get(); }
  /// The remote (latency/cost) layer, or nullptr when the spec had none.
  const RemoteOracle* remote() const { return remote_.get(); }
  /// The retry layer, or nullptr when the spec had none.
  const RetryingOracle* retrying() const { return retrying_.get(); }

  /// The spec the stack was built from (post ForkSeeds, i.e. with the seeds
  /// actually in force).
  const StackSpec& spec() const { return spec_; }

 private:
  friend class OracleStackBuilder;

  StackSpec spec_;
  std::unique_ptr<FaultInjectingOracle> faulty_;
  std::unique_ptr<RemoteOracle> remote_;
  std::unique_ptr<RetryingOracle> retrying_;
  const Oracle* top_ = nullptr;
};

/// Fluent builder for oracle decorator stacks — the single place in the
/// repo that composes Retrying(Remote(FaultInjecting(base))). Callers
/// describe the stack (directly or via a StackSpec), then Build() it over a
/// base oracle:
///
///   OASIS_ASSIGN_OR_RETURN(
///       OracleStack stack,
///       OracleStackBuilder()
///           .FaultInjection(chaos)
///           .Remote(latency_model)
///           .Retry(policy)
///           .ShareLabels(&store)
///           .ForkSeeds(repeat)
///           .Build(&oracle));
///   LabelCache labels(&stack.top());
///
/// The builder is a value type: reusable, copyable, and cheap. Build() may
/// be called repeatedly (e.g. once per repeat or per session), producing
/// independent stacks.
class OracleStackBuilder {
 public:
  /// An empty builder (no layers).
  OracleStackBuilder() = default;
  /// A builder preloaded with `spec`'s layers.
  explicit OracleStackBuilder(const StackSpec& spec) : spec_(spec) {}

  /// Adds (or replaces) the fault-injection layer.
  OracleStackBuilder& FaultInjection(const FaultInjectionOptions& options);
  /// Adds (or replaces) the remote latency/cost layer.
  OracleStackBuilder& Remote(const RemoteOracleOptions& options);
  /// Adds (or replaces) the retry layer.
  OracleStackBuilder& Retry(const RetryPolicy& policy);
  /// Routes the remote layer's fetches through `store` (cross-stack label
  /// sharing; see StackSpec::share_labels). nullptr turns sharing off. The
  /// store must outlive every stack built and cover the base oracle's items;
  /// RemoteOracle itself gates engagement on the base being deterministic
  /// and RNG-free.
  OracleStackBuilder& ShareLabels(SharedLabelStore* store);

  /// Decorrelates the stack's deterministic randomness across sibling stacks
  /// (the experiment runner's repeats, the service's sessions): replaces the
  /// fault seed and the remote jitter seed with Rng::Fork(seed, stream)
  /// .NextUint64() of themselves. Build(stream = r) on the original options
  /// therefore reproduces the historical runner's per-repeat stacks exactly,
  /// bit for bit. Apply at most once per Build.
  OracleStackBuilder& ForkSeeds(uint64_t stream);

  /// Builds the stack over `base` (non-null; must outlive the stack).
  /// Validates the sharing prerequisites and every layer option the
  /// decorators' constructors check, returning InvalidArgument that names
  /// the option (and its `stack_` config key) instead of aborting. The returned stack owns its decorators;
  /// moving it keeps every layer address stable.
  Result<OracleStack> Build(const Oracle* base) const;

  /// The spec as configured so far (ForkSeeds applies at Build time and is
  /// not reflected here).
  const StackSpec& spec() const { return spec_; }

 private:
  StackSpec spec_;
  SharedLabelStore* store_ = nullptr;
  std::optional<uint64_t> fork_stream_;
};

}  // namespace oasis

#endif  // OASIS_ORACLE_ORACLE_STACK_H_
