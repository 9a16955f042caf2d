#ifndef OASIS_EXPERIMENTS_CONFIG_H_
#define OASIS_EXPERIMENTS_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace oasis {
namespace experiments {

/// Minimal `key = value` configuration file shared by the apps/ CLI layer
/// (oasis_gen / oasis_run / oasis_sweep / oasis_verify) and the scenario
/// serialisation in src/datagen/scenario.h.
///
/// Format: one `key = value` pair per line; `#` starts a comment (full-line
/// or trailing); blank lines are ignored; keys and values are trimmed of
/// surrounding whitespace. Keys are unique — a duplicate key is a parse
/// error, not a silent override. Values keep internal whitespace (lists are
/// comma-separated by convention, see GetStringList).
///
/// The map records which keys were read so callers can reject typos: after
/// pulling every expected key, CheckAllKeysUsed() fails loudly on leftovers
/// instead of silently ignoring a misspelled option.
class ConfigMap {
 public:
  /// Parses `text` (the contents of a config file) in one pass over a copy
  /// the map owns. Fails on malformed lines (no '='), empty keys, or
  /// duplicate keys.
  static Result<ConfigMap> Parse(std::string_view text);

  /// Reads and parses the file at `path`.
  static Result<ConfigMap> ParseFile(const std::string& path);

  /// Whether `key` is present.
  bool Has(std::string_view key) const;

  /// The raw value of `key`; fails with NotFound when absent.
  Result<std::string> GetString(std::string_view key) const;

  /// The value of `key`, or `fallback` when absent.
  std::string GetStringOr(std::string_view key,
                          std::string_view fallback) const;

  /// The value parsed as int64 (ParseInt64); fails on absence or on a value
  /// ParseInt64 rejects.
  Result<int64_t> GetInt64(std::string_view key) const;

  /// Integer value with a default for absent keys (parse errors still fail).
  Result<int64_t> GetInt64Or(std::string_view key, int64_t fallback) const;

  /// GetInt64Or for settings held as `int`: a value outside int's range
  /// fails with InvalidArgument naming the key instead of wrapping.
  Result<int> GetIntOr(std::string_view key, int fallback) const;

  /// The value parsed as double (ParseDouble); fails on absence or on a
  /// value ParseDouble rejects.
  Result<double> GetDouble(std::string_view key) const;

  /// Double value with a default for absent keys (parse errors still fail).
  Result<double> GetDoubleOr(std::string_view key, double fallback) const;

  /// The value parsed as bool ("true"/"false"/"1"/"0", case-insensitive).
  Result<bool> GetBool(std::string_view key) const;

  /// Bool value with a default for absent keys (parse errors still fail).
  Result<bool> GetBoolOr(std::string_view key, bool fallback) const;

  /// The value split on commas with each element trimmed; empty elements are
  /// dropped. Absent key -> empty list.
  std::vector<std::string> GetStringList(std::string_view key) const;

  /// Fails with InvalidArgument naming every key that was never read by any
  /// getter — the typo guard every app runs after consuming its options.
  Status CheckAllKeysUsed() const;

  /// All keys in file order (diagnostics and serialisation round-trips).
  std::vector<std::string> Keys() const;

 private:
  /// One `key = value` line, as byte ranges of `text_` (offsets, not views,
  /// so a copied or moved map stays valid).
  struct Entry {
    /// Offset of the key as written in the file (trimmed).
    size_t key_begin = 0;
    /// Length of the key.
    size_t key_size = 0;
    /// Offset of the raw value (trimmed; list splitting happens in
    /// GetStringList).
    size_t value_begin = 0;
    /// Length of the raw value.
    size_t value_size = 0;
    /// Set by every getter; CheckAllKeysUsed reports entries never read.
    mutable bool used = false;
  };

  std::string_view KeyOf(const Entry& entry) const {
    return std::string_view(text_).substr(entry.key_begin, entry.key_size);
  }
  std::string_view ValueOf(const Entry& entry) const {
    return std::string_view(text_).substr(entry.value_begin, entry.value_size);
  }

  const Entry* Find(std::string_view key) const;

  /// The value of `key` marked used, or nullopt when absent.
  std::optional<std::string_view> Read(std::string_view key) const;

  /// Read, failing with NotFound when `key` is absent.
  Result<std::string_view> ReadRequired(std::string_view key) const;

  /// The parsed text; every Entry indexes into it.
  std::string text_;
  std::vector<Entry> entries_;
};

/// Strips leading and trailing "C"-locale whitespace (space, \t, \n, \v,
/// \f, \r). The result views `text`.
std::string_view TrimWhitespace(std::string_view text);

/// Parses all of `text` as a base-10 int64 through strtoll with the
/// whole-field check: leading whitespace and a sign are accepted, and so is
/// anything after an embedded NUL (the C parser stops there); empty text,
/// trailing bytes and ERANGE are rejected. The one integer parser behind
/// every ConfigMap getter, the wire protocol's list fields and CommandLine.
std::optional<int64_t> ParseInt64(std::string_view text);

/// Parses all of `text` as a double through strtod with ParseInt64's rules
/// (ERANGE, i.e. overflow or underflow, is rejected). Plain decimal text
/// with a normal result is read by std::from_chars, which returns strtod's
/// value for it faster.
std::optional<double> ParseDouble(std::string_view text);

/// Appends the config line `key = value\n`, `value` as is. The writers
/// below, the scenario spec and the wire protocol all emit this one shape.
void AppendConfigLine(std::string_view key, std::string_view value,
                      std::string* out);

/// Appends `key = <value>\n` with `value` in decimal (AppendInt64).
void AppendConfigInt64(std::string_view key, int64_t value, std::string* out);

/// Appends `key = <value>\n` with `value` as `%.17g` (WriteDouble), which
/// GetDouble reads back to the same double.
void AppendConfigDouble(std::string_view key, double value, std::string* out);

/// Appends `key = true\n` or `key = false\n`.
void AppendConfigBool(std::string_view key, bool value, std::string* out);

/// Parsed command line of an oasis_* app: positional operands plus
/// --key=value / --flag options, with the same used-key discipline as
/// ConfigMap — every accessor marks its flag as read, and
/// CheckAllFlagsUsed() rejects whatever no code path consumed, so a
/// misspelled option fails loudly instead of being ignored. This is the one
/// argv parser in the repo; the apps (gen/run/sweep/verify/serve) all build
/// on it via ParseCommonFlags below.
class CommandLine {
 public:
  /// Splits argv into positionals and --options. `--flag` (no '=') maps to
  /// the empty string. A repeated flag is a parse error, mirroring
  /// ConfigMap's duplicate-key rule.
  static Result<CommandLine> Parse(int argc, char** argv);

  /// Whether `--name` was given (marks it used).
  bool HasFlag(const std::string& name) const;

  /// The value of `--name=value`, or `fallback` when absent (marks it used).
  std::string FlagOr(const std::string& name, const std::string& fallback) const;

  /// `--name`'s value parsed as int64; `fallback` when absent, error on
  /// trailing garbage.
  Result<int64_t> FlagInt64Or(const std::string& name, int64_t fallback) const;

  /// `--name`'s value parsed as double; `fallback` when absent.
  Result<double> FlagDoubleOr(const std::string& name, double fallback) const;

  /// Fails with InvalidArgument naming every option no accessor read — the
  /// CLI-level twin of ConfigMap::CheckAllKeysUsed. Run it after all flag
  /// consumption (including ParseCommonFlags).
  Status CheckAllFlagsUsed() const;

  /// Positional operands in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Flag {
    std::string name;         ///< Without the leading dashes.
    std::string value;        ///< Empty for bare `--flag`.
    mutable bool used = false;  ///< Marked by the accessors (typo guard).
  };

  const Flag* Find(const std::string& name) const;

  std::vector<std::string> positional_;
  std::vector<Flag> flags_;
};

/// The flags every oasis_* app understands, with one shared semantics
/// (docs/TELEMETRY.md):
///   --metrics-out=<path>   write a metrics JSON snapshot on success
///   --trace-out=<path>     write a chrome://tracing JSON on success
///   --heartbeat=<seconds>  print a stderr progress line every N seconds
///   --no-telemetry         turn collection off entirely
///   --threads=<n>          worker threads (0 = hardware concurrency);
///                          overrides the config file's `threads` key
///   --seed=<n>             base RNG seed; overrides the config's seed key
struct CommonFlags {
  bool telemetry_enabled = true;  ///< False with --no-telemetry.
  std::string metrics_out;        ///< Empty = no metrics snapshot file.
  std::string trace_out;          ///< Empty = no trace file.
  double heartbeat_seconds = 0;   ///< 0 = no heartbeat.
  /// Set when --threads was given; apps fold it over their config value.
  std::optional<int> threads;
  /// Set when --seed was given; apps fold it over their config value.
  std::optional<uint64_t> seed;
};

/// Parses the common flags out of `args`, validating each (--heartbeat > 0,
/// --threads in [0, INT_MAX], and --no-telemetry contradicting the output
/// flags). Apps consume their own extra flags before or after, then run
/// args.CheckAllFlagsUsed() so the typo guard covers both sets.
Result<CommonFlags> ParseCommonFlags(const CommandLine& args);

}  // namespace experiments
}  // namespace oasis

#endif  // OASIS_EXPERIMENTS_CONFIG_H_
