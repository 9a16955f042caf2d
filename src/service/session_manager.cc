#include "service/session_manager.h"

#include <utility>
#include <variant>

#include "experiments/scenario_run.h"
#include "telemetry/telemetry.h"

namespace oasis {
namespace service {
namespace {

/// Folds a typed handler result into the protocol's Response space.
template <typename T>
Response ToResponse(Result<T> result) {
  if (!result.ok()) return MakeErrorReply(result.status());
  return std::move(result).ValueOrDie();
}

}  // namespace

SessionManager::SessionManager(const SessionManagerOptions& options)
    : pool_(options.num_threads) {}

SessionManager::~SessionManager() {
  // Drain queued advances so no task outlives the sessions it references;
  // the pool then joins cleanly in its own destructor.
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(sessions_.size());
    for (auto& [id, entry] : sessions_) entries.push_back(entry);
  }
  for (const std::shared_ptr<Entry>& entry : entries) Settle(entry);
}

Response SessionManager::Handle(const Request& request) {
  if (OASIS_TELEMETRY_ON) {
    static telemetry::Counter& requests =
        telemetry::DefaultRegistry().AddCounter(
            "oasis_service_requests_total",
            "Protocol requests served by the session manager.");
    requests.Increment();
  }
  if (const auto* start = std::get_if<StartSession>(&request)) {
    return ToResponse(Start(start->spec));
  }
  if (const auto* labels = std::get_if<RequestLabels>(&request)) {
    if (labels->wait) return ToResponse(AdvanceSync(labels->session, labels->labels));
    return ToResponse(AdvanceAsync(labels->session, labels->labels));
  }
  if (const auto* estimate = std::get_if<GetEstimate>(&request)) {
    return ToResponse(Estimate(estimate->session));
  }
  if (const auto* checkpoint =
          std::get_if<::oasis::service::Checkpoint>(&request)) {
    return ToResponse(this->Checkpoint(checkpoint->session));
  }
  const auto& close = std::get<CloseSession>(request);
  return ToResponse(Close(close.session));
}

Result<SessionManager::Backend*> SessionManager::GetBackendLocked(
    const std::string& scenario) {
  auto it = backends_.find(scenario);
  if (it != backends_.end()) return it->second.get();
  OASIS_ASSIGN_OR_RETURN(const datagen::ScenarioSpec spec,
                         datagen::ScenarioByName(scenario));
  auto backend = std::make_unique<Backend>();
  OASIS_ASSIGN_OR_RETURN(backend->pool, datagen::GenerateScenario(spec));
  OASIS_ASSIGN_OR_RETURN(backend->oracle,
                         datagen::MakeScenarioOracle(backend->pool));
  Backend* raw = backend.get();
  backends_.emplace(scenario, std::move(backend));
  return raw;
}

Result<const experiments::MethodSpec*> SessionManager::GetMethodLocked(
    Backend* backend, const SessionSpec& spec) {
  if (spec.strata <= 0) {
    return Status::InvalidArgument("StartSession: strata must be positive");
  }
  const std::string key = spec.method + "/" + std::to_string(spec.strata);
  auto it = backend->methods.find(key);
  if (it != backend->methods.end()) return &it->second;
  OASIS_ASSIGN_OR_RETURN(
      experiments::MethodSpec method,
      experiments::MakeMethodByName(spec.method, backend->pool.spec.alpha,
                                    backend->pool.scored, spec.strata));
  auto inserted = backend->methods.emplace(key, std::move(method));
  return &inserted.first->second;
}

Result<SessionStarted> SessionManager::Start(const SessionSpec& spec) {
  if (spec.scenario.empty()) {
    return Status::InvalidArgument(
        "StartSession: scenario must name a catalogue entry");
  }
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    OASIS_ASSIGN_OR_RETURN(Backend* backend, GetBackendLocked(spec.scenario));
    OASIS_RETURN_NOT_OK(experiments::CheckBudgetReachable(
        *backend->oracle, spec.budget, backend->pool.scored.size(),
        "StartSession"));
    OASIS_ASSIGN_OR_RETURN(const experiments::MethodSpec* method,
                           GetMethodLocked(backend, spec));
    if (spec.stack.share_labels && backend->store == nullptr) {
      backend->store =
          std::make_unique<SharedLabelStore>(backend->oracle->num_items());
    }
    auto entry = std::make_shared<Entry>();
    id = next_id_;
    OASIS_ASSIGN_OR_RETURN(
        entry->session,
        EvalSession::Create(id, spec, *method, &backend->pool.scored,
                            backend->oracle.get(), backend->store.get()));
    ++next_id_;
    sessions_.emplace(id, std::move(entry));
  }
  if (OASIS_TELEMETRY_ON) {
    static telemetry::Counter& started =
        telemetry::DefaultRegistry().AddCounter(
            "oasis_service_sessions_started_total",
            "Evaluation sessions created by StartSession.");
    started.Increment();
    static telemetry::Gauge& active = telemetry::DefaultRegistry().AddGauge(
        "oasis_service_sessions_active", "Currently open evaluation sessions.");
    active.Add(1.0);
  }
  SessionStarted response;
  response.session = id;
  return response;
}

Result<std::shared_ptr<SessionManager::Entry>> SessionManager::FindEntry(
    int64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound("no session with id " + std::to_string(session));
  }
  return it->second;
}

void SessionManager::Settle(const std::shared_ptr<Entry>& entry) {
  // Swap the queue out under the lock, wait outside it: Wait() may execute a
  // not-yet-dequeued task inline, and the task itself takes entry->mu.
  std::vector<ThreadPool::TaskHandle> pending;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    pending.swap(entry->pending);
  }
  for (ThreadPool::TaskHandle& handle : pending) handle.Wait();
}

Result<LabelArrived> SessionManager::AdvanceLocked(
    const std::shared_ptr<Entry>& entry, int64_t labels) {
  std::lock_guard<std::mutex> lock(entry->mu);
  // One span per served label request, however many labels it charges.
  TELEMETRY_SPAN("advance", "service");
  if (!entry->failed.ok()) return entry->failed;
  Result<int64_t> charged = entry->session->Advance(labels);
  if (!charged.ok()) {
    // Park the failure: this session is dead, its siblings are not. Every
    // later request against it reports the same root cause.
    entry->failed = charged.status();
    if (OASIS_TELEMETRY_ON) {
      static telemetry::Counter& failed =
          telemetry::DefaultRegistry().AddCounter(
              "oasis_service_sessions_failed_total",
              "Sessions whose advance failed (error parked, siblings "
              "unaffected).");
      failed.Increment();
    }
    return entry->failed;
  }
  if (OASIS_TELEMETRY_ON) {
    static telemetry::Counter& charged_total =
        telemetry::DefaultRegistry().AddCounter(
            "oasis_service_labels_charged_total",
            "Labels charged across all sessions' advances.");
    charged_total.Add(charged.ValueOrDie());
    if (entry->session->done() && !entry->completion_counted) {
      static telemetry::Counter& completed =
          telemetry::DefaultRegistry().AddCounter(
              "oasis_service_sessions_completed_total",
              "Sessions that ran to completion (budget exhausted or "
              "truncated).");
      completed.Increment();
      entry->completion_counted = true;
    }
  }
  LabelArrived response;
  response.report = entry->session->Report();
  response.labels_charged = charged.ValueOrDie();
  return response;
}

Result<LabelArrived> SessionManager::AdvanceSync(int64_t session,
                                                 int64_t labels) {
  OASIS_ASSIGN_OR_RETURN(const std::shared_ptr<Entry> entry,
                         FindEntry(session));
  // Queued advances run first, so sync-after-async observes program order.
  Settle(entry);
  return AdvanceLocked(entry, labels);
}

Result<LabelsEnqueued> SessionManager::AdvanceAsync(int64_t session,
                                                    int64_t labels) {
  OASIS_ASSIGN_OR_RETURN(const std::shared_ptr<Entry> entry,
                         FindEntry(session));
  telemetry::Gauge* depth = nullptr;
  if (OASIS_TELEMETRY_ON) {
    static telemetry::Gauge& queue_depth = telemetry::DefaultRegistry().AddGauge(
        "oasis_service_queue_depth",
        "Asynchronous label requests queued or in flight on the pool.");
    depth = &queue_depth;
    depth->Add(1.0);
  }
  ThreadPool::TaskHandle handle = pool_.Submit([this, entry, labels, depth] {
    (void)AdvanceLocked(entry, labels);
    if (depth != nullptr) depth->Add(-1.0);
  });
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->pending.push_back(std::move(handle));
  }
  LabelsEnqueued response;
  response.session = session;
  return response;
}

Result<EstimateReply> SessionManager::Estimate(int64_t session) {
  OASIS_ASSIGN_OR_RETURN(const std::shared_ptr<Entry> entry,
                         FindEntry(session));
  Settle(entry);
  std::lock_guard<std::mutex> lock(entry->mu);
  if (!entry->failed.ok()) return entry->failed;
  EstimateReply response;
  response.report = entry->session->Report();
  return response;
}

Result<CheckpointAck> SessionManager::Checkpoint(int64_t session) {
  OASIS_ASSIGN_OR_RETURN(const std::shared_ptr<Entry> entry,
                         FindEntry(session));
  Settle(entry);
  std::lock_guard<std::mutex> lock(entry->mu);
  if (!entry->failed.ok()) return entry->failed;
  return entry->session->CheckpointData();
}

Result<SessionClosed> SessionManager::Close(int64_t session) {
  OASIS_ASSIGN_OR_RETURN(const std::shared_ptr<Entry> entry,
                         FindEntry(session));
  Settle(entry);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.erase(session) == 0) {
      // Lost a close-close race: the other call owns the report.
      return Status::NotFound("no session with id " + std::to_string(session));
    }
  }
  if (OASIS_TELEMETRY_ON) {
    static telemetry::Gauge& active = telemetry::DefaultRegistry().AddGauge(
        "oasis_service_sessions_active", "Currently open evaluation sessions.");
    active.Add(-1.0);
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (!entry->failed.ok()) return entry->failed;
  SessionClosed response;
  response.report = entry->session->Report();
  return response;
}

int64_t SessionManager::ActiveSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

}  // namespace service
}  // namespace oasis
