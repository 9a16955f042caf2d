#include "service/protocol.h"

#include <optional>
#include <string_view>

#include "common/number_format.h"
#include "experiments/config.h"
#include "experiments/runner.h"

namespace oasis {
namespace service {
namespace {

using experiments::AppendConfigBool;
using experiments::AppendConfigDouble;
using experiments::AppendConfigInt64;
using experiments::AppendConfigLine;
using experiments::ConfigMap;

// ---------------------------------------------------------------------------
// Wire-form helpers. One `key = value` line per field, appended straight into
// the message (experiments::AppendConfig*); numbers through the shared
// %.17g formatter and the strtoll/strtod parsers (value-exact round trips),
// strings through a minimal percent-encoding so any byte sequence survives
// the line framing and ConfigMap's comment/trim rules.
// ---------------------------------------------------------------------------

/// Whitespace ConfigMap trims from a value's ends that the encoder does not
/// already escape everywhere ('\n' and '\r' always are).
bool IsWire(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f';
}

/// Appends `key = <text percent-encoded>\n`: '%', '#' (comment starter),
/// CR/LF (line framing) always; leading/trailing whitespace (which ConfigMap
/// would trim away) positionally.
void AppendText(std::string_view key, std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  size_t head = 0;
  while (head < text.size() && IsWire(text[head])) ++head;
  size_t tail = text.size();
  while (tail > head && IsWire(text[tail - 1])) --tail;
  out->append(key).append(" = ");
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const bool positional = (i < head || i >= tail) && IsWire(c);
    if (c == '%' || c == '#' || c == '\n' || c == '\r' || positional) {
      const auto byte = static_cast<unsigned char>(c);
      out->push_back('%');
      out->push_back(kHex[byte >> 4]);
      out->push_back(kHex[byte & 0xF]);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('\n');
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

Result<std::string> PercentDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out += text[i];
      continue;
    }
    if (i + 2 >= text.size()) {
      return Status::InvalidArgument(
          "service protocol: truncated percent-escape in '" + text + "'");
    }
    const int hi = HexDigit(text[i + 1]);
    const int lo = HexDigit(text[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument(
          "service protocol: malformed percent-escape in '" + text + "'");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

/// Appends `key = v0,v1,...\n` with `write(value, out)` per item; an empty
/// list writes nothing (an absent key parses back to an empty list).
template <typename T, typename Write>
void AppendList(std::string_view key, const std::vector<T>& values,
                Write write, std::string* out) {
  if (values.empty()) return;
  out->append(key).append(" = ");
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    write(values[i], out);
  }
  out->push_back('\n');
}

void AppendHeader(std::string_view type, std::string* out) {
  AppendConfigInt64("oasis_service_protocol", kProtocolVersion, out);
  AppendConfigLine("type", type, out);
}

Result<std::string> GetText(const ConfigMap& config, std::string_view key,
                            std::string_view fallback) {
  return PercentDecode(config.GetStringOr(key, fallback));
}

/// Parses every item of the comma list `key` with `parse` (ParseInt64 /
/// ParseDouble — the scalar getters' parsers, so a list item is rejected
/// exactly when the same text in a scalar field would be).
template <typename T, typename Parse>
Result<std::vector<T>> GetList(const ConfigMap& config, std::string_view key,
                               const char* what, Parse parse) {
  std::vector<T> out;
  for (const std::string& item : config.GetStringList(key)) {
    const std::optional<T> value = parse(item);
    if (!value) {
      return Status::InvalidArgument("service protocol: bad " +
                                     std::string(what) + " '" + item +
                                     "' in list '" + std::string(key) + "'");
    }
    out.push_back(*value);
  }
  return out;
}

Result<std::vector<uint8_t>> GetBitList(const ConfigMap& config,
                                        std::string_view key) {
  std::vector<uint8_t> out;
  for (const std::string& item : config.GetStringList(key)) {
    if (item != "0" && item != "1") {
      return Status::InvalidArgument("service protocol: bad flag '" + item +
                                     "' in list '" + std::string(key) +
                                     "' (want 0 or 1)");
    }
    out.push_back(item == "1" ? 1 : 0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared EstimateReport body (LabelArrived / EstimateReply / SessionClosed).
// ---------------------------------------------------------------------------

void AppendReport(const EstimateReport& report, std::string* out) {
  AppendConfigInt64("session", report.session, out);
  AppendConfigInt64("labels_consumed", report.labels_consumed, out);
  AppendConfigInt64("iterations", report.iterations, out);
  AppendConfigDouble("f_alpha", report.f_alpha, out);
  AppendConfigBool("f_defined", report.f_defined, out);
  AppendConfigDouble("precision", report.precision, out);
  AppendConfigBool("precision_defined", report.precision_defined, out);
  AppendConfigDouble("recall", report.recall, out);
  AppendConfigBool("recall_defined", report.recall_defined, out);
  AppendConfigBool("done", report.done, out);
  AppendConfigBool("truncated", report.truncated, out);
}

Result<EstimateReport> ParseReport(const ConfigMap& config) {
  EstimateReport report;
  OASIS_ASSIGN_OR_RETURN(report.session, config.GetInt64Or("session", 0));
  OASIS_ASSIGN_OR_RETURN(report.labels_consumed,
                         config.GetInt64Or("labels_consumed", 0));
  OASIS_ASSIGN_OR_RETURN(report.iterations, config.GetInt64Or("iterations", 0));
  OASIS_ASSIGN_OR_RETURN(report.f_alpha, config.GetDoubleOr("f_alpha", 0.0));
  OASIS_ASSIGN_OR_RETURN(report.f_defined,
                         config.GetBoolOr("f_defined", false));
  OASIS_ASSIGN_OR_RETURN(report.precision,
                         config.GetDoubleOr("precision", 0.0));
  OASIS_ASSIGN_OR_RETURN(report.precision_defined,
                         config.GetBoolOr("precision_defined", false));
  OASIS_ASSIGN_OR_RETURN(report.recall, config.GetDoubleOr("recall", 0.0));
  OASIS_ASSIGN_OR_RETURN(report.recall_defined,
                         config.GetBoolOr("recall_defined", false));
  OASIS_ASSIGN_OR_RETURN(report.done, config.GetBoolOr("done", false));
  OASIS_ASSIGN_OR_RETURN(report.truncated,
                         config.GetBoolOr("truncated", false));
  return report;
}

/// The capacity every writer reserves: any message made of fixed-size fields
/// (the longest, an estimate report with every number at full width, is
/// < 400 bytes) fits in it; start_session, checkpoint_ack and error_reply
/// grow past it as their strings and lists need.
constexpr size_t kMessageBytes = 512;

}  // namespace

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

std::string SerializeRequest(const Request& request) {
  std::string out;
  out.reserve(kMessageBytes);
  if (const auto* start = std::get_if<StartSession>(&request)) {
    AppendHeader("start_session", &out);
    const SessionSpec& spec = start->spec;
    AppendText("scenario", spec.scenario, &out);
    AppendText("method", spec.method, &out);
    AppendConfigInt64("budget", spec.budget, &out);
    AppendConfigInt64("checkpoint_every", spec.checkpoint_every, &out);
    AppendConfigInt64("strata", spec.strata, &out);
    AppendConfigInt64("seed", static_cast<int64_t>(spec.seed), &out);
    AppendConfigInt64("stream", static_cast<int64_t>(spec.stream), &out);
    experiments::AppendStackSpecConfig(spec.stack, "stack_", &out);
  } else if (const auto* labels = std::get_if<RequestLabels>(&request)) {
    AppendHeader("request_labels", &out);
    AppendConfigInt64("session", labels->session, &out);
    AppendConfigInt64("labels", labels->labels, &out);
    AppendConfigBool("wait", labels->wait, &out);
  } else if (const auto* estimate = std::get_if<GetEstimate>(&request)) {
    AppendHeader("get_estimate", &out);
    AppendConfigInt64("session", estimate->session, &out);
  } else if (const auto* checkpoint = std::get_if<Checkpoint>(&request)) {
    AppendHeader("checkpoint", &out);
    AppendConfigInt64("session", checkpoint->session, &out);
  } else if (const auto* close = std::get_if<CloseSession>(&request)) {
    AppendHeader("close_session", &out);
    AppendConfigInt64("session", close->session, &out);
  }
  return out;
}

Result<Request> ParseRequest(const std::string& text) {
  OASIS_ASSIGN_OR_RETURN(const ConfigMap config, ConfigMap::Parse(text));
  OASIS_ASSIGN_OR_RETURN(const int64_t version,
                         config.GetInt64("oasis_service_protocol"));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "service protocol: version " + std::to_string(version) +
        " not supported (this build speaks " +
        std::to_string(kProtocolVersion) + ")");
  }
  OASIS_ASSIGN_OR_RETURN(const std::string type, config.GetString("type"));
  Request request;
  if (type == "start_session") {
    StartSession message;
    SessionSpec& spec = message.spec;
    OASIS_ASSIGN_OR_RETURN(spec.scenario, GetText(config, "scenario", ""));
    OASIS_ASSIGN_OR_RETURN(spec.method, GetText(config, "method", spec.method));
    OASIS_ASSIGN_OR_RETURN(spec.budget,
                           config.GetInt64Or("budget", spec.budget));
    OASIS_ASSIGN_OR_RETURN(
        spec.checkpoint_every,
        config.GetInt64Or("checkpoint_every", spec.checkpoint_every));
    OASIS_ASSIGN_OR_RETURN(spec.strata,
                           config.GetInt64Or("strata", spec.strata));
    OASIS_ASSIGN_OR_RETURN(
        const int64_t seed,
        config.GetInt64Or("seed", static_cast<int64_t>(spec.seed)));
    spec.seed = static_cast<uint64_t>(seed);
    OASIS_ASSIGN_OR_RETURN(
        const int64_t stream,
        config.GetInt64Or("stream", static_cast<int64_t>(spec.stream)));
    spec.stream = static_cast<uint64_t>(stream);
    OASIS_ASSIGN_OR_RETURN(spec.stack,
                           experiments::StackSpecFromConfig(config, "stack_"));
    request = message;
  } else if (type == "request_labels") {
    RequestLabels message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    OASIS_ASSIGN_OR_RETURN(message.labels, config.GetInt64Or("labels", 0));
    OASIS_ASSIGN_OR_RETURN(message.wait, config.GetBoolOr("wait", true));
    request = message;
  } else if (type == "get_estimate") {
    GetEstimate message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    request = message;
  } else if (type == "checkpoint") {
    Checkpoint message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    request = message;
  } else if (type == "close_session") {
    CloseSession message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    request = message;
  } else {
    return Status::InvalidArgument("service protocol: unknown request type '" +
                                   type + "'");
  }
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  return request;
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

std::string SerializeResponse(const Response& response) {
  std::string out;
  out.reserve(kMessageBytes);
  if (const auto* started = std::get_if<SessionStarted>(&response)) {
    AppendHeader("session_started", &out);
    AppendConfigInt64("session", started->session, &out);
  } else if (const auto* enqueued = std::get_if<LabelsEnqueued>(&response)) {
    AppendHeader("labels_enqueued", &out);
    AppendConfigInt64("session", enqueued->session, &out);
  } else if (const auto* arrived = std::get_if<LabelArrived>(&response)) {
    AppendHeader("label_arrived", &out);
    AppendReport(arrived->report, &out);
    AppendConfigInt64("labels_charged", arrived->labels_charged, &out);
  } else if (const auto* estimate = std::get_if<EstimateReply>(&response)) {
    AppendHeader("estimate_reply", &out);
    AppendReport(estimate->report, &out);
  } else if (const auto* ack = std::get_if<CheckpointAck>(&response)) {
    AppendHeader("checkpoint_ack", &out);
    AppendConfigInt64("session", ack->session, &out);
    AppendConfigInt64("labels_consumed", ack->labels_consumed, &out);
    AppendConfigBool("done", ack->done, &out);
    AppendConfigBool("truncated", ack->truncated, &out);
    AppendList("budgets", ack->budgets, AppendInt64, &out);
    AppendList("f_alpha", ack->f_alpha, AppendDouble, &out);
    AppendList(
        "f_defined", ack->f_defined,
        [](uint8_t bit, std::string* line) { line->push_back(bit ? '1' : '0'); },
        &out);
  } else if (const auto* closed = std::get_if<SessionClosed>(&response)) {
    AppendHeader("session_closed", &out);
    AppendReport(closed->report, &out);
  } else if (const auto* error = std::get_if<ErrorReply>(&response)) {
    AppendHeader("error_reply", &out);
    AppendText("code", error->code, &out);
    AppendText("message", error->message, &out);
  }
  return out;
}

Result<Response> ParseResponse(const std::string& text) {
  OASIS_ASSIGN_OR_RETURN(const ConfigMap config, ConfigMap::Parse(text));
  OASIS_ASSIGN_OR_RETURN(const int64_t version,
                         config.GetInt64("oasis_service_protocol"));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "service protocol: version " + std::to_string(version) +
        " not supported (this build speaks " +
        std::to_string(kProtocolVersion) + ")");
  }
  OASIS_ASSIGN_OR_RETURN(const std::string type, config.GetString("type"));
  Response response;
  if (type == "session_started") {
    SessionStarted message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    response = message;
  } else if (type == "labels_enqueued") {
    LabelsEnqueued message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    response = message;
  } else if (type == "label_arrived") {
    LabelArrived message;
    OASIS_ASSIGN_OR_RETURN(message.report, ParseReport(config));
    OASIS_ASSIGN_OR_RETURN(message.labels_charged,
                           config.GetInt64Or("labels_charged", 0));
    response = message;
  } else if (type == "estimate_reply") {
    EstimateReply message;
    OASIS_ASSIGN_OR_RETURN(message.report, ParseReport(config));
    response = message;
  } else if (type == "checkpoint_ack") {
    CheckpointAck message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    OASIS_ASSIGN_OR_RETURN(message.labels_consumed,
                           config.GetInt64Or("labels_consumed", 0));
    OASIS_ASSIGN_OR_RETURN(message.done, config.GetBoolOr("done", false));
    OASIS_ASSIGN_OR_RETURN(message.truncated,
                           config.GetBoolOr("truncated", false));
    OASIS_ASSIGN_OR_RETURN(message.budgets,
                           GetList<int64_t>(config, "budgets", "integer",
                                            experiments::ParseInt64));
    OASIS_ASSIGN_OR_RETURN(message.f_alpha,
                           GetList<double>(config, "f_alpha", "number",
                                           experiments::ParseDouble));
    OASIS_ASSIGN_OR_RETURN(message.f_defined, GetBitList(config, "f_defined"));
    if (message.f_alpha.size() != message.budgets.size() ||
        message.f_defined.size() != message.budgets.size()) {
      return Status::InvalidArgument(
          "service protocol: checkpoint_ack list lengths disagree");
    }
    response = message;
  } else if (type == "session_closed") {
    SessionClosed message;
    OASIS_ASSIGN_OR_RETURN(message.report, ParseReport(config));
    response = message;
  } else if (type == "error_reply") {
    ErrorReply message;
    OASIS_ASSIGN_OR_RETURN(message.code, GetText(config, "code", "Internal"));
    OASIS_ASSIGN_OR_RETURN(message.message, GetText(config, "message", ""));
    response = message;
  } else {
    return Status::InvalidArgument("service protocol: unknown response type '" +
                                   type + "'");
  }
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  return response;
}

ErrorReply MakeErrorReply(const Status& status) {
  ErrorReply error;
  error.code = StatusCodeName(status.code());
  error.message = status.message();
  return error;
}

Status ErrorReplyToStatus(const ErrorReply& error) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,            StatusCode::kInvalidArgument,
      StatusCode::kOutOfRange,    StatusCode::kFailedPrecondition,
      StatusCode::kNotFound,      StatusCode::kAlreadyExists,
      StatusCode::kCancelled,     StatusCode::kInternal,
      StatusCode::kUnavailable,   StatusCode::kDeadlineExceeded,
  };
  for (const StatusCode code : kCodes) {
    if (error.code == StatusCodeName(code)) {
      return Status(code, error.message);
    }
  }
  return Status::Internal(error.message);
}

}  // namespace service
}  // namespace oasis
