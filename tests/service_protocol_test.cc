// Byte-level locks and strict-parsing checks for the evaluation-service wire
// protocol (src/service/protocol.h). The golden strings here are the
// contract between a session server and any client, in-process or remote —
// a diff is a BREAKING protocol change and must bump
// service::kProtocolVersion (docs/SERVICE.md).

#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "common/status.h"
#include "service/protocol.h"

namespace oasis {
namespace service {
namespace {

TEST(ServiceProtocolGolden, StartSessionBytes) {
  StartSession request;
  request.spec.scenario = "stripe-f90";
  request.spec.method = "oasis";
  request.spec.budget = 1000;
  request.spec.checkpoint_every = 100;
  request.spec.strata = 30;
  request.spec.seed = 7;
  request.spec.stream = 3;
  EXPECT_EQ(SerializeRequest(request),
            "oasis_service_protocol = 1\n"
            "type = start_session\n"
            "scenario = stripe-f90\n"
            "method = oasis\n"
            "budget = 1000\n"
            "checkpoint_every = 100\n"
            "strata = 30\n"
            "seed = 7\n"
            "stream = 3\n");
}

TEST(ServiceProtocolGolden, RequestLabelsBytes) {
  RequestLabels request;
  request.session = 12;
  request.labels = 250;
  request.wait = true;
  EXPECT_EQ(SerializeRequest(request),
            "oasis_service_protocol = 1\n"
            "type = request_labels\n"
            "session = 12\n"
            "labels = 250\n"
            "wait = true\n");
}

TEST(ServiceProtocolGolden, SmallRequestBytes) {
  GetEstimate estimate;
  estimate.session = 5;
  EXPECT_EQ(SerializeRequest(estimate),
            "oasis_service_protocol = 1\n"
            "type = get_estimate\n"
            "session = 5\n");
  Checkpoint checkpoint;
  checkpoint.session = 5;
  EXPECT_EQ(SerializeRequest(checkpoint),
            "oasis_service_protocol = 1\n"
            "type = checkpoint\n"
            "session = 5\n");
  CloseSession close;
  close.session = 5;
  EXPECT_EQ(SerializeRequest(close),
            "oasis_service_protocol = 1\n"
            "type = close_session\n"
            "session = 5\n");
}

TEST(ServiceProtocolGolden, LabelArrivedBytes) {
  LabelArrived response;
  response.report.session = 4;
  response.report.labels_consumed = 200;
  response.report.iterations = 210;
  response.report.f_alpha = 0.5;
  response.report.f_defined = true;
  response.report.precision = 0.25;
  response.report.precision_defined = true;
  response.report.recall = 0.75;
  response.report.recall_defined = false;
  response.labels_charged = 100;
  EXPECT_EQ(SerializeResponse(response),
            "oasis_service_protocol = 1\n"
            "type = label_arrived\n"
            "session = 4\n"
            "labels_consumed = 200\n"
            "iterations = 210\n"
            "f_alpha = 0.5\n"
            "f_defined = true\n"
            "precision = 0.25\n"
            "precision_defined = true\n"
            "recall = 0.75\n"
            "recall_defined = false\n"
            "done = false\n"
            "truncated = false\n"
            "labels_charged = 100\n");
}

TEST(ServiceProtocolGolden, CheckpointAckBytes) {
  CheckpointAck response;
  response.session = 4;
  response.labels_consumed = 200;
  response.done = true;
  response.budgets = {100, 200};
  response.f_alpha = {0.5, 0.625};
  response.f_defined = {1, 1};
  EXPECT_EQ(SerializeResponse(response),
            "oasis_service_protocol = 1\n"
            "type = checkpoint_ack\n"
            "session = 4\n"
            "labels_consumed = 200\n"
            "done = true\n"
            "truncated = false\n"
            "budgets = 100,200\n"
            "f_alpha = 0.5,0.625\n"
            "f_defined = 1,1\n");
}

TEST(ServiceProtocolGolden, ErrorReplyBytes) {
  ErrorReply response;
  response.code = "NotFound";
  response.message = "no session with id 9";
  EXPECT_EQ(SerializeResponse(response),
            "oasis_service_protocol = 1\n"
            "type = error_reply\n"
            "code = NotFound\n"
            "message = no session with id 9\n");
}

TEST(ServiceProtocol, EveryRequestRoundTrips) {
  StartSession start;
  start.spec.scenario = "sis-inversion";
  start.spec.method = "is";
  start.spec.budget = 4000;
  start.spec.checkpoint_every = 500;
  start.spec.strata = 12;
  start.spec.seed = 0xdeadbeefULL;
  start.spec.stream = 41;
  FaultInjectionOptions fault;
  fault.transient_failure_rate = 0.125;
  fault.outage_after_attempts = 17;
  start.spec.stack.fault_injection = fault;
  RemoteOracleOptions remote;
  remote.round_trip_seconds = 2.5;
  remote.jitter_fraction = 0.0625;
  start.spec.stack.remote = remote;
  start.spec.stack.retry = RetryPolicy{};
  start.spec.stack.share_labels = true;

  const Result<Request> parsed = ParseRequest(SerializeRequest(start));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& back = std::get<StartSession>(parsed.ValueOrDie());
  EXPECT_EQ(back.spec.scenario, start.spec.scenario);
  EXPECT_EQ(back.spec.method, start.spec.method);
  EXPECT_EQ(back.spec.budget, start.spec.budget);
  EXPECT_EQ(back.spec.checkpoint_every, start.spec.checkpoint_every);
  EXPECT_EQ(back.spec.strata, start.spec.strata);
  EXPECT_EQ(back.spec.seed, start.spec.seed);
  EXPECT_EQ(back.spec.stream, start.spec.stream);
  ASSERT_TRUE(back.spec.stack.fault_injection.has_value());
  EXPECT_EQ(back.spec.stack.fault_injection->transient_failure_rate, 0.125);
  EXPECT_EQ(back.spec.stack.fault_injection->outage_after_attempts, 17);
  ASSERT_TRUE(back.spec.stack.remote.has_value());
  EXPECT_EQ(back.spec.stack.remote->round_trip_seconds, 2.5);
  EXPECT_EQ(back.spec.stack.remote->jitter_fraction, 0.0625);
  EXPECT_TRUE(back.spec.stack.retry.has_value());
  EXPECT_TRUE(back.spec.stack.share_labels);

  // Wire idempotence: serialising the parsed message reproduces the bytes.
  EXPECT_EQ(SerializeRequest(parsed.ValueOrDie()), SerializeRequest(start));

  RequestLabels labels;
  labels.session = 9;
  labels.labels = 0;
  labels.wait = false;
  const Result<Request> labels_back = ParseRequest(SerializeRequest(labels));
  ASSERT_TRUE(labels_back.ok());
  EXPECT_FALSE(std::get<RequestLabels>(labels_back.ValueOrDie()).wait);
}

TEST(ServiceProtocol, EveryResponseRoundTrips) {
  const Response responses[] = {
      Response(SessionStarted{21}),
      Response(LabelsEnqueued{22}),
      Response(LabelArrived{{23, 120, 130, 0.875, true, 0.75, true, 1.0, true,
                             false, false},
                            40}),
      Response(EstimateReply{{24, 500, 700, 0.9375, true, 0.5, true, 0.25,
                              true, true, true}}),
      Response(SessionClosed{{25, 1000, 1400, 0.625, true, 0.5, true, 0.75,
                              true, true, false}}),
      Response(ErrorReply{"Unavailable", "oracle outage"}),
  };
  for (const Response& response : responses) {
    const std::string bytes = SerializeResponse(response);
    const Result<Response> parsed = ParseResponse(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(SerializeResponse(parsed.ValueOrDie()), bytes);
    EXPECT_EQ(parsed.ValueOrDie().index(), response.index());
  }

  CheckpointAck ack;
  ack.session = 30;
  ack.labels_consumed = 60;
  ack.truncated = true;
  ack.budgets = {20, 40, 60};
  ack.f_alpha = {0.1, 0.30000000000000004, 1e-17};
  ack.f_defined = {0, 1, 1};
  const Result<Response> parsed = ParseResponse(SerializeResponse(ack));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& back = std::get<CheckpointAck>(parsed.ValueOrDie());
  EXPECT_EQ(back.budgets, ack.budgets);
  // %.17g is value-exact for doubles, including the non-representable sums.
  EXPECT_EQ(back.f_alpha, ack.f_alpha);
  EXPECT_EQ(back.f_defined, ack.f_defined);
}

TEST(ServiceProtocol, EmptyCheckpointAckRoundTrips) {
  CheckpointAck ack;
  ack.session = 3;
  const Result<Response> parsed = ParseResponse(SerializeResponse(ack));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& back = std::get<CheckpointAck>(parsed.ValueOrDie());
  EXPECT_TRUE(back.budgets.empty());
  EXPECT_TRUE(back.f_alpha.empty());
  EXPECT_TRUE(back.f_defined.empty());
}

TEST(ServiceProtocol, PercentEncodingPreservesHostileStrings) {
  ErrorReply error;
  error.code = "InvalidArgument";
  error.message = "  100% #done\nnext = line\t";
  const std::string bytes = SerializeResponse(error);
  // Comment/framing/trim-sensitive bytes must not appear raw in the value.
  EXPECT_NE(bytes.find("message = %20%20100%25 %23done%0Anext = line%09\n"),
            std::string::npos)
      << bytes;
  const Result<Response> parsed = ParseResponse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(std::get<ErrorReply>(parsed.ValueOrDie()).message, error.message);
}

TEST(ServiceProtocol, PercentEncodingKeepsEveryTrimmedByte) {
  // ConfigMap trims all six "C" whitespace bytes from a value's ends; each
  // must survive a text field's round trip, not only space and tab.
  ErrorReply error;
  error.code = "Internal";
  error.message = "\v\f\t mid\v\t \f";
  const std::string bytes = SerializeResponse(error);
  EXPECT_NE(bytes.find("message = %0B%0C%09%20mid%0B%09%20%0C\n"),
            std::string::npos)
      << bytes;
  const Result<Response> parsed = ParseResponse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(std::get<ErrorReply>(parsed.ValueOrDie()).message, error.message);
}

TEST(ServiceProtocol, RejectsUnknownKeysVersionsAndTypes) {
  GetEstimate request;
  request.session = 1;
  const std::string bytes = SerializeRequest(request);

  // Unknown field: the typo guard fails the parse instead of ignoring it.
  EXPECT_FALSE(ParseRequest(bytes + "sesion = 2\n").ok());

  // Foreign protocol version: rejected up front.
  std::string wrong_version = bytes;
  wrong_version.replace(wrong_version.find(" 1\n"), 3, " 2\n");
  EXPECT_FALSE(ParseRequest(wrong_version).ok());

  // Unknown message type.
  EXPECT_FALSE(ParseRequest("oasis_service_protocol = 1\n"
                            "type = start_sesion\n")
                   .ok());
  EXPECT_FALSE(ParseResponse("oasis_service_protocol = 1\n"
                             "type = replying\n")
                   .ok());

  // Requests and responses are distinct vocabularies.
  EXPECT_FALSE(ParseResponse(bytes).ok());

  // Missing version line entirely.
  EXPECT_FALSE(ParseRequest("type = get_estimate\nsession = 1\n").ok());

  // Malformed percent-escapes.
  EXPECT_FALSE(ParseResponse("oasis_service_protocol = 1\n"
                             "type = error_reply\n"
                             "code = Internal\n"
                             "message = bad%2\n")
                   .ok());
  EXPECT_FALSE(ParseResponse("oasis_service_protocol = 1\n"
                             "type = error_reply\n"
                             "code = Internal\n"
                             "message = bad%zz\n")
                   .ok());

  // share_labels without a remote layer: rejected at parse time, same rule
  // as OracleStackBuilder::Build.
  EXPECT_FALSE(ParseRequest("oasis_service_protocol = 1\n"
                            "type = start_session\n"
                            "scenario = stripe-f90\n"
                            "stack_share_labels = true\n")
                   .ok());

  // Mismatched checkpoint_ack list lengths.
  EXPECT_FALSE(ParseResponse("oasis_service_protocol = 1\n"
                             "type = checkpoint_ack\n"
                             "session = 1\n"
                             "budgets = 10,20\n"
                             "f_alpha = 0.5\n"
                             "f_defined = 1,1\n")
                   .ok());

  // Out-of-range numbers: a list item is rejected exactly like the same text
  // in a scalar field (one integer parser, one double parser).
  EXPECT_FALSE(ParseRequest("oasis_service_protocol = 1\n"
                            "type = get_estimate\n"
                            "session = 99999999999999999999\n")
                   .ok());
  EXPECT_FALSE(ParseResponse("oasis_service_protocol = 1\n"
                             "type = checkpoint_ack\n"
                             "session = 1\n"
                             "budgets = 99999999999999999999\n"
                             "f_alpha = 0.5\n"
                             "f_defined = 1\n")
                   .ok());
  EXPECT_FALSE(ParseResponse("oasis_service_protocol = 1\n"
                             "type = estimate_reply\n"
                             "f_alpha = 1e999\n")
                   .ok());
  EXPECT_FALSE(ParseResponse("oasis_service_protocol = 1\n"
                             "type = checkpoint_ack\n"
                             "session = 1\n"
                             "budgets = 10\n"
                             "f_alpha = 1e999\n"
                             "f_defined = 1\n")
                   .ok());
}

TEST(ServiceProtocol, ErrorReplyStatusMappingRoundTrips) {
  const Status statuses[] = {
      Status::InvalidArgument("a"), Status::OutOfRange("b"),
      Status::FailedPrecondition("c"), Status::NotFound("d"),
      Status::AlreadyExists("e"), Status::Cancelled("f"), Status::Internal("g"),
      Status::Unavailable("h"), Status::DeadlineExceeded("i"),
  };
  for (const Status& status : statuses) {
    const Status back = ErrorReplyToStatus(MakeErrorReply(status));
    EXPECT_EQ(back, status);
  }
  // Unknown code names degrade to kInternal, keeping the message.
  ErrorReply alien;
  alien.code = "SomethingNew";
  alien.message = "hello";
  const Status degraded = ErrorReplyToStatus(alien);
  EXPECT_EQ(degraded.code(), StatusCode::kInternal);
  EXPECT_EQ(degraded.message(), "hello");
}

}  // namespace
}  // namespace service
}  // namespace oasis
