#include "telemetry/enabled.h"

namespace oasis {
namespace telemetry {
namespace internal {

std::atomic<bool> g_enabled{false};

}  // namespace internal
}  // namespace telemetry
}  // namespace oasis
