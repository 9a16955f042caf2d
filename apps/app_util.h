// Shared plumbing of the oasis_* command-line apps: scenario-reference
// resolution (catalogue name vs spec file), uniform Status-to-exit-code
// handling, and the per-run telemetry session. Argument parsing itself lives
// in experiments::CommandLine / experiments::ParseCommonFlags (one parser
// and one flag vocabulary across gen/run/sweep/verify/serve).
// Exit code contract across the suite:
//   0  success (for oasis_verify: every check passed)
//   1  operational error (bad usage, unreadable file, failed run)
//   2  verification failure (checks ran and at least one failed)
#ifndef OASIS_APPS_APP_UTIL_H_
#define OASIS_APPS_APP_UTIL_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "datagen/scenario.h"
#include "experiments/config.h"
#include "telemetry/heartbeat.h"

namespace oasis {
namespace apps {

inline constexpr int kExitOk = 0;
inline constexpr int kExitError = 1;
inline constexpr int kExitVerifyFailed = 2;

// Resolves a scenario reference: a catalogue name ("stripe-f90", ...) or a
// path to a serialised ScenarioSpec config file. Anything containing a '/'
// or ending in ".cfg" is treated as a path; otherwise the catalogue is
// consulted first and the filesystem second.
Result<datagen::ScenarioSpec> ResolveScenario(const std::string& reference);

// Prints "error: <status>" to stderr and returns kExitError — the uniform
// tail of every app's main() error path. Never ignores a Status.
int FailWith(const Status& status);

// Process-wide telemetry for the duration of one app run: construction
// turns collection on (unless --no-telemetry) and starts the heartbeat;
// Finish() writes the requested artifact files and stops the heartbeat.
// Observe-only — results are identical with or without a session.
//
// Scoped like ScopedEnable: the previous process-wide enabled state is
// captured at construction and restored by the destructor, so sessions
// compose — nesting one inside another (or inside a test that enabled
// telemetry itself) leaves the outer state exactly as found instead of
// force-disabling on the way out.
class TelemetrySession {
 public:
  explicit TelemetrySession(const experiments::CommonFlags& flags);
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  // Writes --metrics-out / --trace-out (when set) and stops the heartbeat.
  // Idempotent; the destructor restores the enabled state without writing.
  Status Finish();

 private:
  experiments::CommonFlags flags_;
  bool previous_enabled_ = false;
  bool finished_ = false;
  std::optional<telemetry::Heartbeat> heartbeat_;
};

// "elapsed 1.23s" plus " (N labels, M labels/s)" when labels > 0.
std::string FormatElapsed(double seconds, int64_t labels);

}  // namespace apps
}  // namespace oasis

#endif  // OASIS_APPS_APP_UTIL_H_
