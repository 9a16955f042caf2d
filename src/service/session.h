#ifndef OASIS_SERVICE_SESSION_H_
#define OASIS_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/status.h"
#include "experiments/runner.h"
#include "oracle/label_cache.h"
#include "oracle/oracle.h"
#include "oracle/oracle_stack.h"
#include "oracle/shared_label_store.h"
#include "sampling/sampler.h"
#include "sampling/trajectory.h"
#include "service/protocol.h"

namespace oasis {
namespace service {

/// One live evaluation session: a sampler with its own RNG stream, its own
/// oracle decorator stack and label cache, advanced incrementally against a
/// shared immutable backend (pool + base oracle). The incremental twin of one
/// RunTrajectory call: the session holds the TrajectoryCursor that
/// RunTrajectory advances in one go, and advances it per request.
///
/// Determinism contract (tested in tests/session_server_test.cc): a session
/// over scenario backend B with (seed, stream) = (base_seed, r) produces, at
/// every checkpoint, estimates bit-identical to repeat r of
/// experiments::RunErrorCurve on B with base_seed — regardless of how callers
/// slice their label requests, because the cursor only pauses between
/// batches, never inside one (so the oracle attempt sequence, and with it any
/// fault/jitter schedule, is identical to batch mode).
///
/// Not thread-safe: the SessionManager serialises access per session.
class EvalSession {
 public:
  /// Builds a session over the shared backend. `pool` and `oracle` must
  /// outlive the session; `store` (nullable) is the backend's shared label
  /// store, engaged only when spec.stack.share_labels. The session's stack
  /// seeds are forked by spec.stream (OracleStackBuilder::ForkSeeds), its
  /// sampler runs on Rng::Fork(spec.seed, spec.stream) — both exactly the
  /// batch runner's per-repeat arrangement.
  static Result<std::unique_ptr<EvalSession>> Create(
      int64_t id, const SessionSpec& spec,
      const experiments::MethodSpec& method, const ScoredPool* pool,
      const Oracle* oracle, SharedLabelStore* store);

  /// Advances the session by at least `label_quota` charged labels (<= 0:
  /// run to the full budget); see TrajectoryCursor::Advance. A failed
  /// advance (fallible oracle stack without retries) leaves the session at
  /// its pre-batch state and is sticky via the manager.
  Result<int64_t> Advance(int64_t label_quota) {
    return cursor_->Advance(label_quota);
  }

  /// Current estimate state (protocol form).
  EstimateReport Report() const;

  /// Checkpointed trajectory so far (protocol form): estimates at every
  /// reached checkpoint; once done, the full grid with RunTrajectory's
  /// trailing fill applied.
  CheckpointAck CheckpointData() const;

  /// Whether the session finished (budget exhausted or truncated).
  bool done() const { return cursor_->done(); }

  /// Session id (assigned by the manager).
  int64_t id() const { return id_; }

  /// The spec the session was started with.
  const SessionSpec& spec() const { return spec_; }

  /// The sampler's weight-degeneracy monitor, when it has one (diagnostics;
  /// nullptr otherwise).
  const DegeneracyMonitor* degeneracy_monitor() const {
    return sampler_->degeneracy_monitor();
  }

 private:
  EvalSession(int64_t id, const SessionSpec& spec, OracleStack stack)
      : id_(id), spec_(spec), stack_(std::move(stack)) {}

  const int64_t id_;
  const SessionSpec spec_;
  /// Order matters: the cache points into the stack, the sampler into the
  /// cache; members destroy in reverse declaration order.
  OracleStack stack_;
  std::unique_ptr<LabelCache> labels_;
  std::unique_ptr<Sampler> sampler_;

  /// The session's trajectory run over sampler_, advanced per request.
  std::optional<TrajectoryCursor> cursor_;
};

}  // namespace service
}  // namespace oasis

#endif  // OASIS_SERVICE_SESSION_H_
