// The repo's one number formatter (common/number_format.h) against the
// printf conversions it replaces: WriteDouble must print exactly the bytes of
// snprintf("%.17g") and AppendInt64 those of std::to_string, on the edge
// values and on seeded random bit patterns. The byte-locked artifacts that
// print doubles (summary JSON, curves and pool CSV, scenario specs, telemetry
// exports, the wire protocol) rest on this identity.

#include "common/number_format.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/random.h"

namespace oasis {
namespace {

std::string Printf17g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Written(double value) {
  char buffer[kNumberChars];
  return std::string(buffer, WriteDouble(value, buffer));
}

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

TEST(NumberFormatTest, DoubleMatchesPrintfOnEdgeValues) {
  const double kEdges[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      0.1,
      0.30000000000000004,
      1e-17,
      1e17,
      123456789012345678.0,
      1e21,
      1e-5,
      1e-4,
      1e16,
      9007199254740993.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      FromBits(0x000fffffffffffffULL),  // largest subnormal
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      DBL_EPSILON,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      FromBits(0x7ff0000000000001ULL),  // signalling NaN payload
      FromBits(0xfff8000000000001ULL),
  };
  for (const double value : kEdges) {
    EXPECT_EQ(Written(value), Printf17g(value)) << std::hexfloat << value;
  }
}

TEST(NumberFormatTest, DoubleMatchesPrintfOnRandomBitPatterns) {
  Rng rng(0x17917);
  int mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    // Alternate raw bit patterns (every exponent, NaN payloads included)
    // with values in the [0, 1) range the estimators actually emit.
    const double value =
        (i % 2 == 0) ? FromBits(rng.NextUint64()) : rng.NextDouble();
    if (Written(value) != Printf17g(value)) {
      ++mismatches;
      ADD_FAILURE() << std::hexfloat << value << ": " << Written(value)
                    << " vs " << Printf17g(value);
      if (mismatches > 5) break;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(NumberFormatTest, BufferFitsTheLongestRendering) {
  char buffer[kNumberChars];
  EXPECT_EQ(WriteDouble(-FromBits(0x000fffffffffffffULL), buffer) - buffer,
            24);
  EXPECT_LT(24u, kNumberChars);
}

TEST(NumberFormatTest, IntMatchesToString) {
  const int64_t kEdges[] = {0, 1, -1, 10, -10, 1000000,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (const int64_t value : kEdges) {
    std::string out;
    AppendInt64(value, &out);
    EXPECT_EQ(out, std::to_string(value));
  }
  Rng rng(64);
  for (int i = 0; i < 2000; ++i) {
    const auto value = static_cast<int64_t>(rng.NextUint64() >> (i % 64));
    std::string out = "x";
    AppendInt64(value, &out);
    EXPECT_EQ(out, "x" + std::to_string(value));
  }
}

TEST(NumberFormatTest, AppendAppends) {
  std::string out = "v = ";
  AppendDouble(0.25, &out);
  out += ',';
  AppendInt64(-7, &out);
  EXPECT_EQ(out, "v = 0.25,-7");
}

}  // namespace
}  // namespace oasis
