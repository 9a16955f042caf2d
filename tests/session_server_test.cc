// End-to-end tests of the evaluation-session server (src/service/): many
// concurrent sessions over shared backends, driven through the FULL wire
// protocol (ServiceClient over InProcessTransport), checked bit-for-bit
// against the batch experiment runner — the determinism contract of
// docs/SERVICE.md. Runs under TSan in CI (concurrent sessions share the
// backend and the manager's pool).

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "datagen/scenario.h"
#include "experiments/runner.h"
#include "experiments/scenario_run.h"
#include "oracle/label_cache.h"
#include "sampling/trajectory.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session_manager.h"

namespace oasis {
namespace service {
namespace {

constexpr char kScenario[] = "stripe-f90";
constexpr uint64_t kSeed = 20260808;

/// The batch-side reference for `spec`'s scenario: the regenerated pool,
/// oracle, and method — the exact backend the manager builds internally.
struct BatchReference {
  datagen::ScenarioPool pool;
  std::unique_ptr<Oracle> oracle;
  experiments::MethodSpec method;
};

BatchReference MakeReference(const std::string& method, int64_t strata) {
  BatchReference ref;
  ref.pool = datagen::GenerateScenario(
                 datagen::ScenarioByName(kScenario).ValueOrDie())
                 .ValueOrDie();
  ref.oracle = datagen::MakeScenarioOracle(ref.pool).ValueOrDie();
  ref.method = experiments::MakeMethodByName(method, ref.pool.spec.alpha,
                                             ref.pool.scored, strata)
                   .ValueOrDie();
  return ref;
}

/// Repeat r of the batch runner, replayed directly: per-checkpoint estimates
/// a session with (seed, stream) = (kSeed, r) must reproduce bit for bit.
Trajectory BatchTrajectory(const BatchReference& ref, int64_t budget,
                           int64_t checkpoint_every, uint64_t repeat) {
  LabelCache labels(ref.oracle.get());
  std::unique_ptr<Sampler> sampler =
      ref.method.factory(&ref.pool.scored, &labels, Rng::Fork(kSeed, repeat))
          .ValueOrDie();
  TrajectoryOptions options;
  options.budget = budget;
  options.checkpoint_every = checkpoint_every;
  return RunTrajectory(*sampler, options).ValueOrDie();
}

SessionSpec MakeSpec(const std::string& method, int64_t budget,
                     int64_t checkpoint_every, uint64_t stream) {
  SessionSpec spec;
  spec.scenario = kScenario;
  spec.method = method;
  spec.budget = budget;
  spec.checkpoint_every = checkpoint_every;
  spec.strata = 30;
  spec.seed = kSeed;
  spec.stream = stream;
  return spec;
}

// 64 concurrent OASIS sessions, each sliced differently across RequestLabels
// calls, at manager thread counts 1 and 8: every session's full checkpoint
// trajectory must be bit-identical to the batch runner's matching repeat —
// slicing and scheduling must be invisible.
TEST(SessionServer, ConcurrentSessionsMatchBatchRunnerBitForBit) {
  const int64_t kBudget = 240;
  const int64_t kEvery = 60;
  const int kSessions = 64;
  const BatchReference ref = MakeReference("oasis", 30);

  for (const int threads : {1, 8}) {
    SessionManagerOptions options;
    options.num_threads = threads;
    SessionManager manager(options);
    InProcessTransport transport(&manager);

    std::vector<int64_t> ids(kSessions);
    {
      ServiceClient client(&transport);
      for (int s = 0; s < kSessions; ++s) {
        ids[static_cast<size_t>(s)] =
            client
                .Start(MakeSpec("oasis", kBudget, kEvery,
                                static_cast<uint64_t>(s)))
                .ValueOrDie();
      }
    }
    EXPECT_EQ(manager.ActiveSessions(), kSessions);

    // Drive sessions concurrently from 8 client threads, one client each,
    // with a per-session request slicing (17..189 labels per call) that
    // never matches the checkpoint grid.
    std::vector<std::thread> drivers;
    for (int t = 0; t < 8; ++t) {
      drivers.emplace_back([&, t] {
        ServiceClient client(&transport);
        for (int s = t; s < kSessions; s += 8) {
          const int64_t id = ids[static_cast<size_t>(s)];
          const int64_t slice = 17 + 43 * (s % 5);
          while (true) {
            const Result<LabelArrived> arrived =
                client.RequestLabels(id, slice);
            ASSERT_TRUE(arrived.ok()) << arrived.status().ToString();
            if (arrived.ValueOrDie().report.done) break;
          }
        }
      });
    }
    for (std::thread& driver : drivers) driver.join();

    ServiceClient client(&transport);
    for (int s = 0; s < kSessions; ++s) {
      const Trajectory batch =
          BatchTrajectory(ref, kBudget, kEvery, static_cast<uint64_t>(s));
      const CheckpointAck ack =
          client.GetCheckpoint(ids[static_cast<size_t>(s)]).ValueOrDie();
      ASSERT_EQ(ack.budgets.size(), batch.snapshots.size());
      ASSERT_TRUE(ack.done);
      EXPECT_EQ(ack.labels_consumed, batch.labels_consumed);
      for (size_t i = 0; i < batch.snapshots.size(); ++i) {
        EXPECT_EQ(ack.f_alpha[i], batch.snapshots[i].f_alpha)
            << "threads=" << threads << " session " << s << " checkpoint "
            << i;
        EXPECT_EQ(ack.f_defined[i] != 0, batch.snapshots[i].f_defined);
      }
      const EstimateReport final_report =
          client.Close(ids[static_cast<size_t>(s)]).ValueOrDie();
      EXPECT_EQ(final_report.f_alpha, batch.snapshots.back().f_alpha);
      EXPECT_TRUE(final_report.done);
    }
    EXPECT_EQ(manager.ActiveSessions(), 0);
  }
}

// Sessions whose stack injects transient faults (recovered by retries) must
// STILL be bit-identical to the batch runner with the same stack — the
// session's whole-batch stepping keeps the fault schedule aligned.
TEST(SessionServer, FaultInjectedSessionsMatchBatchRunner) {
  const int64_t kBudget = 160;
  const int64_t kEvery = 40;
  const int kSessions = 12;

  StackSpec stack;
  FaultInjectionOptions fault;
  fault.transient_failure_rate = 0.05;
  fault.timeout_rate = 0.03;
  fault.seed = 0xfadedULL;
  stack.fault_injection = fault;
  // Enough attempts that an 8% per-attempt fault rate cannot plausibly
  // exhaust the retries anywhere in 12 repeats x 160 labels.
  RetryPolicy retry;
  retry.max_attempts = 8;
  stack.retry = retry;

  // Batch side: RunErrorCurve with the same declarative stack.
  const BatchReference ref = MakeReference("passive", 30);
  experiments::RunnerOptions runner;
  runner.repeats = kSessions;
  runner.base_seed = kSeed;
  runner.num_threads = 2;
  runner.trajectory.budget = kBudget;
  runner.trajectory.checkpoint_every = kEvery;
  runner.stack = stack;
  const experiments::ErrorCurve curve =
      experiments::RunErrorCurve(ref.method, ref.pool.scored, *ref.oracle,
                                 ref.pool.true_f, runner)
          .ValueOrDie();

  SessionManager manager;
  InProcessTransport transport(&manager);
  ServiceClient client(&transport);
  for (int s = 0; s < kSessions; ++s) {
    SessionSpec spec =
        MakeSpec("passive", kBudget, kEvery, static_cast<uint64_t>(s));
    spec.stack = stack;
    const int64_t id = client.Start(spec).ValueOrDie();
    // Run to completion in one shot (labels <= 0).
    const LabelArrived arrived = client.RequestLabels(id, 0).ValueOrDie();
    ASSERT_TRUE(arrived.report.done);
    EXPECT_EQ(arrived.report.f_alpha,
              curve.final_estimates[static_cast<size_t>(s)])
        << "session " << s;
    EXPECT_EQ(arrived.report.f_defined,
              curve.final_defined[static_cast<size_t>(s)] != 0);
    EXPECT_TRUE(client.Close(id).ok());
  }
}

// A chaos leg: one session's oracle stack goes into permanent outage (no
// retries to save it). Its error parks on the session — every later request
// reports it — while sibling sessions on the SAME backend converge
// unperturbed.
TEST(SessionServer, OutageSessionFailsAloneSiblingsConverge) {
  const int64_t kBudget = 160;
  const int64_t kEvery = 40;
  const BatchReference ref = MakeReference("oasis", 30);

  SessionManager manager;
  InProcessTransport transport(&manager);
  ServiceClient client(&transport);

  const int64_t healthy_a =
      client.Start(MakeSpec("oasis", kBudget, kEvery, 0)).ValueOrDie();
  SessionSpec doomed_spec = MakeSpec("oasis", kBudget, kEvery, 1);
  FaultInjectionOptions outage;
  outage.outage_after_attempts = 0;  // Down from the first attempt.
  doomed_spec.stack.fault_injection = outage;
  const int64_t doomed = client.Start(doomed_spec).ValueOrDie();
  const int64_t healthy_b =
      client.Start(MakeSpec("oasis", kBudget, kEvery, 2)).ValueOrDie();

  // The doomed session fails its first advance with the outage status...
  const Result<LabelArrived> failed = client.RequestLabels(doomed, 0);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // ...and the failure is sticky, surfacing on every later request.
  EXPECT_EQ(client.GetEstimate(doomed).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(client.GetCheckpoint(doomed).status().code(),
            StatusCode::kUnavailable);

  // Siblings on the same backend still match the batch runner bit for bit.
  for (const auto& [id, stream] :
       {std::pair<int64_t, uint64_t>{healthy_a, 0},
        std::pair<int64_t, uint64_t>{healthy_b, 2}}) {
    const LabelArrived arrived = client.RequestLabels(id, 0).ValueOrDie();
    ASSERT_TRUE(arrived.report.done);
    const Trajectory batch = BatchTrajectory(ref, kBudget, kEvery, stream);
    EXPECT_EQ(arrived.report.f_alpha, batch.snapshots.back().f_alpha);
  }

  // Closing the doomed session reports the parked error and still frees it.
  EXPECT_EQ(client.Close(doomed).status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(client.Close(healthy_a).ok());
  EXPECT_TRUE(client.Close(healthy_b).ok());
  EXPECT_EQ(manager.ActiveSessions(), 0);
}

// Sessions routing labels through a RemoteOracle with cross-session label
// sharing: the shared store only short-circuits the simulated wire — the
// estimates stay bit-identical to stackless sessions.
TEST(SessionServer, SharedLabelStoreLeavesEstimatesUntouched) {
  const int64_t kBudget = 160;
  const int64_t kEvery = 40;
  const int kSessions = 8;
  const BatchReference ref = MakeReference("oasis", 30);

  SessionManager manager;
  InProcessTransport transport(&manager);
  ServiceClient client(&transport);

  StackSpec shared;
  RemoteOracleOptions remote;
  remote.round_trip_seconds = 1.0;
  remote.per_item_seconds = 0.1;
  shared.remote = remote;
  shared.share_labels = true;

  for (int s = 0; s < kSessions; ++s) {
    SessionSpec spec =
        MakeSpec("oasis", kBudget, kEvery, static_cast<uint64_t>(s));
    spec.stack = shared;
    const int64_t id = client.Start(spec).ValueOrDie();
    const LabelArrived arrived = client.RequestLabels(id, 0).ValueOrDie();
    ASSERT_TRUE(arrived.report.done);
    const Trajectory batch =
        BatchTrajectory(ref, kBudget, kEvery, static_cast<uint64_t>(s));
    EXPECT_EQ(arrived.report.f_alpha, batch.snapshots.back().f_alpha)
        << "session " << s;
    EXPECT_TRUE(client.Close(id).ok());
  }
}

// Asynchronous advances (wait = false) queue on the manager's pool; a later
// estimate/checkpoint/close settles them first, so the observable state is
// as if the advance had been synchronous.
TEST(SessionServer, AsynchronousAdvancesSettleBeforeReads) {
  const int64_t kBudget = 200;
  const int64_t kEvery = 50;
  const BatchReference ref = MakeReference("passive", 30);

  SessionManager manager;
  InProcessTransport transport(&manager);
  ServiceClient client(&transport);

  const int64_t id =
      client.Start(MakeSpec("passive", kBudget, kEvery, 5)).ValueOrDie();
  // Four queued advances cover the budget; none is waited on directly.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.EnqueueLabels(id, 50).ok());
  }
  const EstimateReport report = client.GetEstimate(id).ValueOrDie();
  EXPECT_TRUE(report.done);
  const Trajectory batch = BatchTrajectory(ref, kBudget, kEvery, 5);
  EXPECT_EQ(report.f_alpha, batch.snapshots.back().f_alpha);
  EXPECT_TRUE(client.Close(id).ok());
}

// A thousand concurrent passive sessions — the "evaluation-as-a-service"
// scale target — all completing and all bit-identical to a 1000-repeat batch
// run's final estimates.
TEST(SessionServer, ThousandSessionsStress) {
  const int64_t kBudget = 60;
  const int64_t kEvery = 30;
  const int kSessions = 1000;
  const BatchReference ref = MakeReference("passive", 30);

  experiments::RunnerOptions runner;
  runner.repeats = kSessions;
  runner.base_seed = kSeed;
  runner.trajectory.budget = kBudget;
  runner.trajectory.checkpoint_every = kEvery;
  const experiments::ErrorCurve curve =
      experiments::RunErrorCurve(ref.method, ref.pool.scored, *ref.oracle,
                                 ref.pool.true_f, runner)
          .ValueOrDie();

  SessionManager manager;
  InProcessTransport transport(&manager);
  ServiceClient client(&transport);
  std::vector<int64_t> ids(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    ids[static_cast<size_t>(s)] =
        client.Start(MakeSpec("passive", kBudget, kEvery,
                              static_cast<uint64_t>(s)))
            .ValueOrDie();
    // Queue the full run asynchronously; all 1000 multiplex onto the pool.
    ASSERT_TRUE(client.EnqueueLabels(ids[static_cast<size_t>(s)], 0).ok());
  }
  EXPECT_EQ(manager.ActiveSessions(), kSessions);
  for (int s = 0; s < kSessions; ++s) {
    const EstimateReport report =
        client.Close(ids[static_cast<size_t>(s)]).ValueOrDie();
    EXPECT_TRUE(report.done);
    EXPECT_EQ(report.f_alpha, curve.final_estimates[static_cast<size_t>(s)])
        << "session " << s;
  }
  EXPECT_EQ(manager.ActiveSessions(), 0);
}

// Server-side handling of hostile bytes and unknown sessions: the channel
// answers with error_reply, the server survives.
TEST(SessionServer, ProtocolErrorsBecomeErrorReplies) {
  SessionManager manager;
  InProcessTransport transport(&manager);

  const Result<std::string> reply = transport.RoundTrip("not a protocol line");
  ASSERT_TRUE(reply.ok());
  const Result<Response> parsed = ParseResponse(reply.ValueOrDie());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(parsed.ValueOrDie()));
  EXPECT_EQ(std::get<ErrorReply>(parsed.ValueOrDie()).code,
            "InvalidArgument");

  ServiceClient client(&transport);
  EXPECT_EQ(client.GetEstimate(12345).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.Close(12345).status().code(), StatusCode::kNotFound);
  SessionSpec bad = MakeSpec("oasis", 100, 10, 0);
  bad.scenario = "no-such-scenario";
  EXPECT_FALSE(client.Start(bad).ok());
  bad = MakeSpec("frequentist", 100, 10, 0);
  EXPECT_FALSE(client.Start(bad).ok());
  bad = MakeSpec("oasis", 0, 10, 0);
  EXPECT_FALSE(client.Start(bad).ok());
  // The manager survived all of it.
  EXPECT_EQ(manager.ActiveSessions(), 0);
}

// A start_session whose oracle stack carries an out-of-range option gets an
// error reply naming the option's key; the server does not abort, and the
// same manager then serves a valid session to completion.
TEST(SessionServer, BadStackStartIsAnErrorReplyAndTheServerCarriesOn) {
  SessionManager manager;
  InProcessTransport transport(&manager);
  ServiceClient client(&transport);

  SessionSpec bad = MakeSpec("oasis", 100, 50, 0);
  RetryPolicy retry;
  retry.max_attempts = 0;
  bad.stack.retry = retry;
  const Result<int64_t> rejected = client.Start(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("stack_retry_max_attempts"),
            std::string::npos)
      << rejected.status().message();
  bad.stack.retry.reset();
  FaultInjectionOptions fault;
  fault.transient_failure_rate = std::numeric_limits<double>::quiet_NaN();
  bad.stack.fault_injection = fault;
  EXPECT_EQ(client.Start(bad).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.ActiveSessions(), 0);

  const int64_t id = client.Start(MakeSpec("oasis", 100, 50, 0)).ValueOrDie();
  const LabelArrived arrived = client.RequestLabels(id, 100).ValueOrDie();
  EXPECT_TRUE(arrived.report.done);
  EXPECT_EQ(arrived.report.labels_consumed, 100);
  EXPECT_TRUE(client.Close(id).ok());
}

// A deterministic scenario oracle charges each item once, so a budget one
// above the pool size is unreachable and Start must reject it, naming both
// numbers; a noisy oracle charges every query, so the same budget is fine.
TEST(SessionServer, BudgetBeyondADeterministicPoolIsRejected) {
  SessionManager manager;
  const int64_t pool_size =
      datagen::ScenarioByName(kScenario).ValueOrDie().pool_size;
  SessionSpec spec = MakeSpec("oasis", pool_size + 1, 1000, 0);
  const Result<SessionStarted> rejected = manager.Start(spec);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  const std::string message = rejected.status().message();
  EXPECT_NE(message.find(std::to_string(pool_size + 1)), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(pool_size)), std::string::npos)
      << message;
  EXPECT_EQ(manager.ActiveSessions(), 0);

  spec.budget = pool_size;
  EXPECT_TRUE(manager.Start(spec).ok());
}

TEST(SessionServer, BudgetBeyondANoisyPoolIsAllowed) {
  SessionManager manager;
  const int64_t pool_size =
      datagen::ScenarioByName("noisy-flip05").ValueOrDie().pool_size;
  SessionSpec spec = MakeSpec("passive", pool_size + 1, 1000, 0);
  spec.scenario = "noisy-flip05";
  const Result<SessionStarted> started = manager.Start(spec);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(manager.ActiveSessions(), 1);
}

}  // namespace
}  // namespace service
}  // namespace oasis
