#include "apps/app_util.h"

#include <cstdio>
#include <fstream>

#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace oasis {
namespace apps {

Result<datagen::ScenarioSpec> ResolveScenario(const std::string& reference) {
  const bool looks_like_path =
      reference.find('/') != std::string::npos ||
      (reference.size() > 4 &&
       reference.compare(reference.size() - 4, 4, ".cfg") == 0);
  if (!looks_like_path) {
    Result<datagen::ScenarioSpec> by_name = datagen::ScenarioByName(reference);
    if (by_name.ok()) return by_name;
    // Fall through: maybe it is a bare file name in the working directory.
    std::ifstream probe(reference);
    if (!probe) return by_name.status();
  }
  OASIS_ASSIGN_OR_RETURN(const experiments::ConfigMap config,
                         experiments::ConfigMap::ParseFile(reference));
  return datagen::ScenarioSpec::FromConfig(config);
}

int FailWith(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return kExitError;
}

TelemetrySession::TelemetrySession(const experiments::CommonFlags& flags)
    : flags_(flags), previous_enabled_(telemetry::Enabled()) {
  if (!flags_.telemetry_enabled) return;
  telemetry::SetEnabled(true);
  if (flags_.heartbeat_seconds > 0.0) {
    telemetry::HeartbeatOptions beat;
    beat.interval_seconds = flags_.heartbeat_seconds;
    heartbeat_.emplace(&telemetry::DefaultRegistry(), beat);
  }
}

TelemetrySession::~TelemetrySession() {
  heartbeat_.reset();
  // Restore, not force-off: an enclosing session (or a test that enabled
  // collection itself) keeps observing after this one ends.
  telemetry::SetEnabled(previous_enabled_);
}

Status TelemetrySession::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  heartbeat_.reset();
  if (!flags_.telemetry_enabled) return Status::OK();
  if (!flags_.metrics_out.empty()) {
    OASIS_RETURN_NOT_OK(telemetry::WriteTextFile(
        flags_.metrics_out,
        telemetry::MetricsJson(telemetry::DefaultRegistry())));
  }
  if (!flags_.trace_out.empty()) {
    const telemetry::TraceCollector& collector =
        telemetry::DefaultTraceCollector();
    OASIS_RETURN_NOT_OK(telemetry::WriteTextFile(
        flags_.trace_out, telemetry::TraceJson(collector)));
    if (collector.dropped() > 0) {
      std::fprintf(stderr,
                   "warning: trace truncated: %lld spans dropped at the "
                   "%zu-span cap; %s holds only the first ones\n",
                   static_cast<long long>(collector.dropped()),
                   telemetry::TraceCollector::kDefaultCapacity,
                   flags_.trace_out.c_str());
    }
  }
  return Status::OK();
}

std::string FormatElapsed(double seconds, int64_t labels) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "elapsed %.2fs", seconds);
  std::string line = buffer;
  if (labels > 0 && seconds > 0.0) {
    std::snprintf(buffer, sizeof(buffer), " (%lld labels, %.0f labels/s)",
                  static_cast<long long>(labels),
                  static_cast<double>(labels) / seconds);
    line += buffer;
  }
  return line;
}

}  // namespace apps
}  // namespace oasis
