#ifndef OASIS_COMMON_NUMBER_FORMAT_H_
#define OASIS_COMMON_NUMBER_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace oasis {

/// Buffer size that holds any WriteDouble rendering (the longest is a
/// 24-byte `%.17g` such as "-2.2250738585072014e-308").
inline constexpr size_t kNumberChars = 32;

/// Writes `value` into `[first, first + kNumberChars)` exactly as
/// printf("%.17g") does in the "C" locale and returns one past the last
/// byte written (no terminating NUL). It is
/// std::to_chars(..., std::chars_format::general, 17), which the standard
/// defines as that printf conversion; `%.17g` round-trips every double
/// through strtod, and dyadic rationals print in their exact shortest form,
/// which keeps the golden artifacts byte-stable. This is the repo's one
/// double formatter: JSON, CSV, config, telemetry and wire writers all call
/// it (tests/number_format_test.cc locks it against snprintf).
char* WriteDouble(double value, char* first);

/// Appends WriteDouble's rendering of `value` to `out`.
void AppendDouble(double value, std::string* out);

/// Appends `value` in decimal (the bytes of std::to_string) to `out`.
void AppendInt64(int64_t value, std::string* out);

}  // namespace oasis

#endif  // OASIS_COMMON_NUMBER_FORMAT_H_
