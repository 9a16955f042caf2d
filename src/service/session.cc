#include "service/session.h"

#include <utility>

#include "common/random.h"

namespace oasis {
namespace service {

Result<std::unique_ptr<EvalSession>> EvalSession::Create(
    int64_t id, const SessionSpec& spec, const experiments::MethodSpec& method,
    const ScoredPool* pool, const Oracle* oracle, SharedLabelStore* store) {
  if (spec.budget <= 0) {
    return Status::InvalidArgument("EvalSession: budget must be positive");
  }
  if (spec.checkpoint_every <= 0 || spec.checkpoint_every > spec.budget) {
    return Status::InvalidArgument(
        "EvalSession: checkpoint_every must lie in [1, budget]");
  }
  OASIS_ASSIGN_OR_RETURN(
      OracleStack stack,
      OracleStackBuilder(spec.stack)
          .ShareLabels(spec.stack.share_labels ? store : nullptr)
          .ForkSeeds(spec.stream)
          .Build(oracle));
  std::unique_ptr<EvalSession> session(
      new EvalSession(id, spec, std::move(stack)));
  session->labels_ = std::make_unique<LabelCache>(&session->stack_.top());
  OASIS_ASSIGN_OR_RETURN(
      session->sampler_,
      method.factory(pool, session->labels_.get(),
                     Rng::Fork(spec.seed, spec.stream)));
  TrajectoryOptions trajectory;
  trajectory.budget = spec.budget;
  trajectory.checkpoint_every = spec.checkpoint_every;
  OASIS_ASSIGN_OR_RETURN(
      TrajectoryCursor cursor,
      TrajectoryCursor::Start(*session->sampler_, trajectory));
  session->cursor_.emplace(std::move(cursor));
  return session;
}

EstimateReport EvalSession::Report() const {
  EstimateReport report;
  report.session = id_;
  report.labels_consumed = sampler_->labels_consumed();
  report.iterations = sampler_->iterations();
  const EstimateSnapshot snap = sampler_->Estimate();
  report.f_alpha = snap.f_alpha;
  report.f_defined = snap.f_defined;
  report.precision = snap.precision;
  report.precision_defined = snap.precision_defined;
  report.recall = snap.recall;
  report.recall_defined = snap.recall_defined;
  report.done = cursor_->done();
  report.truncated = cursor_->trajectory().truncated;
  return report;
}

CheckpointAck EvalSession::CheckpointData() const {
  CheckpointAck ack;
  ack.session = id_;
  ack.labels_consumed = sampler_->labels_consumed();
  const Trajectory& trajectory = cursor_->trajectory();
  ack.done = cursor_->done();
  ack.truncated = trajectory.truncated;
  ack.budgets.assign(trajectory.budgets.begin(),
                     trajectory.budgets.begin() +
                         static_cast<int64_t>(trajectory.snapshots.size()));
  ack.f_alpha.reserve(trajectory.snapshots.size());
  ack.f_defined.reserve(trajectory.snapshots.size());
  for (const EstimateSnapshot& snap : trajectory.snapshots) {
    ack.f_alpha.push_back(snap.f_alpha);
    ack.f_defined.push_back(snap.f_defined ? 1 : 0);
  }
  return ack;
}

}  // namespace service
}  // namespace oasis
