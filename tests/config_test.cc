// The `key = value` config parser behind the apps/ CLI layer: parse shapes,
// typed getters, the typo guard (CheckAllKeysUsed), and file round-trips.

#include "experiments/config.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/number_format.h"
#include "common/random.h"

namespace oasis {
namespace experiments {
namespace {

TEST(ConfigMapTest, ParsesKeysValuesCommentsAndBlanks) {
  auto config = ConfigMap::Parse(
                    "# full-line comment\n"
                    "scenario = stripe-f90\n"
                    "\n"
                    "budget=2000   # trailing comment\n"
                    "  repeats  =  15  \n")
                    .ValueOrDie();
  EXPECT_TRUE(config.Has("scenario"));
  EXPECT_EQ(config.GetString("scenario").ValueOrDie(), "stripe-f90");
  EXPECT_EQ(config.GetInt64("budget").ValueOrDie(), 2000);
  EXPECT_EQ(config.GetInt64("repeats").ValueOrDie(), 15);
  EXPECT_EQ(config.Keys().size(), 3u);
}

TEST(ConfigMapTest, ValuesKeepInternalWhitespace) {
  auto config =
      ConfigMap::Parse("methods = passive, oasis, is\n").ValueOrDie();
  EXPECT_EQ(config.GetString("methods").ValueOrDie(), "passive, oasis, is");
  const std::vector<std::string> list = config.GetStringList("methods");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "passive");
  EXPECT_EQ(list[1], "oasis");
  EXPECT_EQ(list[2], "is");
}

TEST(ConfigMapTest, MalformedLinesFail) {
  EXPECT_FALSE(ConfigMap::Parse("no equals sign here\n").ok());
  EXPECT_FALSE(ConfigMap::Parse("= value without key\n").ok());
}

TEST(ConfigMapTest, DuplicateKeyIsAnErrorNotAnOverride) {
  const auto result = ConfigMap::Parse("budget = 1\nbudget = 2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("budget"), std::string::npos);
}

TEST(ConfigMapTest, TypedGettersRejectGarbage) {
  auto config = ConfigMap::Parse(
                    "n = 12x\n"
                    "x = abc\n"
                    "b = maybe\n")
                    .ValueOrDie();
  EXPECT_FALSE(config.GetInt64("n").ok());
  EXPECT_FALSE(config.GetDouble("x").ok());
  EXPECT_FALSE(config.GetBool("b").ok());
}

TEST(ConfigMapTest, TypedGettersWithDefaults) {
  auto config = ConfigMap::Parse("present = 7\n").ValueOrDie();
  EXPECT_EQ(config.GetInt64Or("present", 1).ValueOrDie(), 7);
  EXPECT_EQ(config.GetInt64Or("absent", 42).ValueOrDie(), 42);
  EXPECT_DOUBLE_EQ(config.GetDoubleOr("absent", 0.5).ValueOrDie(), 0.5);
  EXPECT_TRUE(config.GetBoolOr("absent", true).ValueOrDie());
  EXPECT_EQ(config.GetStringOr("absent", "fallback"), "fallback");
  // A present key with a bad value still fails even through the Or variant.
  auto bad = ConfigMap::Parse("n = oops\n").ValueOrDie();
  EXPECT_FALSE(bad.GetInt64Or("n", 3).ok());
}

// Settings held as int never wrap: GetIntOr and --threads accept the whole
// int range and reject anything past it with an error naming the setting.
TEST(ConfigMapTest, IntSettingsRejectValuesOutsideIntRange) {
  auto config = ConfigMap::Parse(
                    "max = 2147483647\n"
                    "min = -2147483648\n"
                    "above = 2147483648\n"
                    "below = -2147483649\n"
                    "wraps_to_one = 4294967297\n")
                    .ValueOrDie();
  EXPECT_EQ(config.GetIntOr("max", 0).ValueOrDie(), 2147483647);
  EXPECT_EQ(config.GetIntOr("min", 0).ValueOrDie(), -2147483647 - 1);
  EXPECT_EQ(config.GetIntOr("absent", 9).ValueOrDie(), 9);
  for (const char* key : {"above", "below", "wraps_to_one"}) {
    const Result<int> value = config.GetIntOr(key, 1);
    ASSERT_FALSE(value.ok()) << key;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(value.status().message().find(std::string("'") + key + "'"),
              std::string::npos)
        << value.status().message();
  }
  EXPECT_EQ(config.GetIntOr("wraps_to_one", 1).status().message(),
            "ConfigMap: key 'wraps_to_one' is outside int's range: "
            "4294967297");

  // --threads is only parsed here, never used to start a pool.
  const auto parse_threads = [](const std::string& value) {
    std::string arg = "--threads=" + value;
    char app[] = "oasis_run";
    char* argv[] = {app, arg.data()};
    return ParseCommonFlags(CommandLine::Parse(2, argv).ValueOrDie());
  };
  EXPECT_EQ(*parse_threads("2147483647").ValueOrDie().threads, 2147483647);
  for (const char* value : {"2147483648", "-2147483649", "4294967297"}) {
    const Result<CommonFlags> flags = parse_threads(value);
    ASSERT_FALSE(flags.ok()) << value;
    EXPECT_NE(flags.status().message().find("'--threads'"), std::string::npos)
        << flags.status().message();
  }
}

TEST(ConfigMapTest, BoolSpellings) {
  auto config = ConfigMap::Parse(
                    "a = true\nb = FALSE\nc = 1\nd = 0\n")
                    .ValueOrDie();
  EXPECT_TRUE(config.GetBool("a").ValueOrDie());
  EXPECT_FALSE(config.GetBool("b").ValueOrDie());
  EXPECT_TRUE(config.GetBool("c").ValueOrDie());
  EXPECT_FALSE(config.GetBool("d").ValueOrDie());
}

TEST(ConfigMapTest, CheckAllKeysUsedNamesTheTypo) {
  auto config = ConfigMap::Parse(
                    "budget = 100\n"
                    "bugdet_typo = 5\n")
                    .ValueOrDie();
  EXPECT_EQ(config.GetInt64("budget").ValueOrDie(), 100);
  const Status status = config.CheckAllKeysUsed();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bugdet_typo"), std::string::npos);
}

TEST(ConfigMapTest, CheckAllKeysUsedPassesWhenEverythingIsRead) {
  auto config = ConfigMap::Parse("a = 1\nb = 2\n").ValueOrDie();
  (void)config.GetInt64("a");
  (void)config.GetString("b");
  EXPECT_TRUE(config.CheckAllKeysUsed().ok());
}

TEST(ConfigMapTest, ParseFileRoundTrip) {
  const std::string path = "/tmp/oasis_config_test_roundtrip.cfg";
  {
    std::ofstream out(path);
    out << "# header\nscenario = stripe-f50\nbudget = 321\n";
  }
  auto config = ConfigMap::ParseFile(path).ValueOrDie();
  EXPECT_EQ(config.GetString("scenario").ValueOrDie(), "stripe-f50");
  EXPECT_EQ(config.GetInt64("budget").ValueOrDie(), 321);
  std::remove(path.c_str());
  EXPECT_FALSE(ConfigMap::ParseFile(path).ok());
}

TEST(TrimWhitespaceTest, Trims) {
  EXPECT_EQ(TrimWhitespace("  a b \t"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
  EXPECT_EQ(TrimWhitespace("\v\f\r\n x \r\n"), "x");
}

TEST(ConfigMapTest, ErrorMessagesNameTheLineAndKey) {
  EXPECT_EQ(ConfigMap::Parse("a = 1\n  no equals # c\n").status().message(),
            "ConfigMap: line 2 is not 'key = value': 'no equals'");
  EXPECT_EQ(ConfigMap::Parse("\n = 5\n").status().message(),
            "ConfigMap: empty key at line 2");
  EXPECT_EQ(ConfigMap::Parse("k = 1\r\nk = 2\n").status().message(),
            "ConfigMap: duplicate key 'k' at line 2");
  auto config = ConfigMap::Parse("n = 1x\nb = yes\n").ValueOrDie();
  EXPECT_EQ(config.GetInt64("n").status().message(),
            "ConfigMap: key 'n' is not an integer: '1x'");
  EXPECT_EQ(config.GetDouble("n").status().message(),
            "ConfigMap: key 'n' is not a number: '1x'");
  EXPECT_EQ(config.GetBool("b").status().message(),
            "ConfigMap: key 'b' is not a bool: 'yes'");
  EXPECT_EQ(config.GetString("zz").status().message(),
            "ConfigMap: missing key 'zz'");
}

TEST(ConfigMapTest, ConfigLineWritersReadBack) {
  std::string text;
  AppendConfigInt64("i", -9223372036854775807 - 1, &text);
  AppendConfigDouble("d", 0.1, &text);
  AppendConfigBool("b", false, &text);
  AppendConfigLine("s", "x, y", &text);
  EXPECT_EQ(text,
            "i = -9223372036854775808\nd = 0.10000000000000001\nb = false\n"
            "s = x, y\n");
  auto config = ConfigMap::Parse(text).ValueOrDie();
  EXPECT_EQ(config.GetInt64("i").ValueOrDie(), INT64_MIN);
  EXPECT_EQ(config.GetDouble("d").ValueOrDie(), 0.1);
  EXPECT_FALSE(config.GetBool("b").ValueOrDie());
  EXPECT_EQ(config.GetStringList("s"), (std::vector<std::string>{"x", "y"}));
}

// The grammar's numbers are defined by the C parsers with whole-field and
// ERANGE checks; ParseInt64/ParseDouble must accept exactly those spellings
// and return the same values (ParseDouble's from_chars path included).
std::optional<int64_t> StrtollReference(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<int64_t>(value);
}

std::optional<double> StrtodReference(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

TEST(ConfigNumbersTest, ParseInt64MatchesStrtoll) {
  std::vector<std::string> spellings = {
      "0", "-0", "+5", " 5", "\t-5", "5 ", "007", "9223372036854775807",
      "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
      "99999999999999999999", "0x10", "1e3", "", "-", "+", "12a", "1.0",
      std::string("5\0x", 3), std::string(70, '1'), "0" + std::string(70, '0')};
  Rng rng(1234);
  for (int i = 0; i < 2000; ++i) {
    spellings.push_back(std::to_string(
        static_cast<int64_t>(rng.NextUint64() >> (i % 64))));
  }
  for (const std::string& text : spellings) {
    EXPECT_EQ(ParseInt64(text), StrtollReference(text)) << "'" << text << "'";
  }
}

TEST(ConfigNumbersTest, ParseDoubleMatchesStrtod) {
  std::vector<std::string> spellings = {
      "0", "-0", "0.5", ".5", "5.", "-.5", "+0.5", " 0.5", "0.5 ", "1e", "1e+",
      "1e5", "1E-5", "0x1p-2", "0X1P3", "inf", "-Infinity", "nan", "NAN(12)",
      "1e999", "-1e999", "1e-400", "4.9406564584124654e-324",
      "2.2250738585072014e-308", "2.2250738585072009e-308",
      "1.7976931348623157e308", "1.7976931348623159e308", "", " ", "abc",
      "1,5", "0.1.2", "--1", "00012", "1e0001", std::string("5\0x", 3),
      "0." + std::string(100, '3'), std::string(400, '9')};
  Rng rng(5678);
  for (int i = 0; i < 3000; ++i) {
    uint64_t bits = rng.NextUint64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    std::string text;
    AppendDouble(i % 2 == 0 ? value : rng.NextDouble(), &text);
    spellings.push_back(text);
  }
  for (const std::string& text : spellings) {
    const std::optional<double> got = ParseDouble(text);
    const std::optional<double> want = StrtodReference(text);
    ASSERT_EQ(got.has_value(), want.has_value()) << "'" << text << "'";
    if (got) {
      EXPECT_TRUE(SameDouble(*got, *want)) << "'" << text << "'";
    }
  }
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
