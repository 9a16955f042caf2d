// Umbrella header of src/telemetry: the metrics registry, trace spans, the
// runtime/compile-time kill switches and the instrumentation macros. This is
// the one header instrumented code includes (see docs/TELEMETRY.md).
//
// Instrumentation idiom — a site registers its metric once through a
// function-local static and gates every touch behind the kill switch:
//
//   if (OASIS_TELEMETRY_ON) {
//     static telemetry::Counter& steps = telemetry::DefaultRegistry().AddCounter(
//         "oasis_sampler_steps_total", "Sampler steps taken.");
//     steps.Increment();
//   }
//
// With telemetry off (the default) the site costs one relaxed atomic load.
// Configuring with -DOASIS_TELEMETRY=OFF defines OASIS_TELEMETRY_DISABLED,
// making OASIS_TELEMETRY_ON a compile-time `false` — the whole block is dead
// code and the fused step path is bit-for-bit the uninstrumented one.
#ifndef OASIS_TELEMETRY_TELEMETRY_H_
#define OASIS_TELEMETRY_TELEMETRY_H_

#include "telemetry/enabled.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

#if defined(OASIS_TELEMETRY_DISABLED)

/// Compile-time-off build: instrumentation blocks are dead code.
#define OASIS_TELEMETRY_ON false
/// Compile-time-off build: spans expand to nothing.
#define TELEMETRY_SPAN(name, category) \
  do {                                 \
  } while (false)

#else  // !defined(OASIS_TELEMETRY_DISABLED)

/// Whether telemetry is collecting right now (runtime kill switch).
#define OASIS_TELEMETRY_ON (::oasis::telemetry::Enabled())

#define OASIS_TELEMETRY_CONCAT_INNER(a, b) a##b
#define OASIS_TELEMETRY_CONCAT(a, b) OASIS_TELEMETRY_CONCAT_INNER(a, b)
/// Scoped trace span: times the enclosing scope and appends one
/// chrome://tracing event to the default collector when telemetry is on.
/// `name` and `category` must be string literals.
#define TELEMETRY_SPAN(name, category)                   \
  ::oasis::telemetry::ScopedSpan OASIS_TELEMETRY_CONCAT( \
      oasis_telemetry_span_, __LINE__)(name, category)

#endif  // defined(OASIS_TELEMETRY_DISABLED)

#endif  // OASIS_TELEMETRY_TELEMETRY_H_
