#include "experiments/config.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/number_format.h"

namespace oasis {
namespace experiments {

namespace {

/// The "C"-locale isspace set, inline (no locale lookup per byte).
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Whether `text` equals the lower-case ASCII word `lower`, ignoring case.
bool EqualsIgnoreCase(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) return false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower[i]) return false;
  }
  return true;
}

/// Runs the C parser `convert(begin, &end)` over a NUL-terminated copy of
/// `text` (on the stack unless it is long) and applies the whole-field
/// checks shared by ParseInt64 and ParseDouble.
template <typename T, typename Convert>
std::optional<T> ParseWithC(std::string_view text, Convert convert) {
  char small[64];
  std::string large;
  const char* begin = small;
  if (text.size() < sizeof(small)) {
    small[text.copy(small, text.size())] = '\0';
  } else {
    large.assign(text);
    begin = large.c_str();
  }
  errno = 0;
  char* end = nullptr;
  const T value = convert(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) return std::nullopt;
  return value;
}

std::string Quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('\'');
  out.append(text);
  out.push_back('\'');
  return out;
}

Status NotAn(const char* what, std::string_view key, std::string_view raw) {
  return Status::InvalidArgument("ConfigMap: key " + Quoted(key) + " is not " +
                                 what + ": " + Quoted(raw));
}

Result<int64_t> ToInt64(std::string_view key, std::string_view raw) {
  const std::optional<int64_t> value = ParseInt64(raw);
  if (!value) return NotAn("an integer", key, raw);
  return *value;
}

/// `value` narrowed to int, or InvalidArgument naming `what` (a config key
/// or a command-line option) when it lies outside int's range: the one
/// checked narrowing behind every int setting, so none wraps silently.
Result<int> ToInt(const std::string& what, int64_t value) {
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(what + " is outside int's range: " +
                                   std::to_string(value));
  }
  return static_cast<int>(value);
}

Result<double> ToDouble(std::string_view key, std::string_view raw) {
  const std::optional<double> value = ParseDouble(raw);
  if (!value) return NotAn("a number", key, raw);
  return *value;
}

Result<bool> ToBool(std::string_view key, std::string_view raw) {
  if (EqualsIgnoreCase(raw, "true") || raw == "1") return true;
  if (EqualsIgnoreCase(raw, "false") || raw == "0") return false;
  return NotAn("a bool", key, raw);
}

}  // namespace

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && IsSpace(text[begin])) ++begin;
  while (end > begin && IsSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::optional<int64_t> ParseInt64(std::string_view text) {
  return ParseWithC<int64_t>(text, [](const char* begin, char** stop) {
    return static_cast<int64_t>(std::strtoll(begin, stop, 10));
  });
}

std::optional<double> ParseDouble(std::string_view text) {
  // strtod is what decides, but it is slow on the 17-digit text every writer
  // emits (three such fields per label_arrived). std::from_chars reads that
  // plain form; where it consumes the whole text to a normal double, strtod
  // would have accepted it and, both being correctly rounded, returned the
  // same value. Anything else (a plus sign, whitespace, hex, inf/nan, zero,
  // subnormal or out-of-range results) goes to strtod.
  double value = 0.0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc() && end == text.data() + text.size() &&
      std::isnormal(value)) {
    return value;
  }
  return ParseWithC<double>(text, [](const char* begin, char** stop) {
    return std::strtod(begin, stop);
  });
}

void AppendConfigLine(std::string_view key, std::string_view value,
                      std::string* out) {
  out->append(key).append(" = ").append(value).push_back('\n');
}

void AppendConfigInt64(std::string_view key, int64_t value, std::string* out) {
  out->append(key).append(" = ");
  AppendInt64(value, out);
  out->push_back('\n');
}

void AppendConfigDouble(std::string_view key, double value, std::string* out) {
  out->append(key).append(" = ");
  AppendDouble(value, out);
  out->push_back('\n');
}

void AppendConfigBool(std::string_view key, bool value, std::string* out) {
  AppendConfigLine(key, value ? "true" : "false", out);
}

Result<ConfigMap> ConfigMap::Parse(std::string_view text) {
  ConfigMap config;
  config.text_.assign(text);
  const std::string_view all(config.text_);
  config.entries_.reserve(
      static_cast<size_t>(std::count(all.begin(), all.end(), '\n')) + 1);
  size_t line_number = 0;
  size_t pos = 0;
  while (pos < all.size()) {
    ++line_number;
    size_t eol = all.find('\n', pos);
    if (eol == std::string_view::npos) eol = all.size();
    std::string_view line = all.substr(pos, eol - pos);
    pos = eol + 1;
    line = line.substr(0, line.find('#'));
    line = TrimWhitespace(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("ConfigMap: line " +
                                     std::to_string(line_number) +
                                     " is not 'key = value': " + Quoted(line));
    }
    const std::string_view key = TrimWhitespace(line.substr(0, eq));
    const std::string_view value = TrimWhitespace(line.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("ConfigMap: empty key at line " +
                                     std::to_string(line_number));
    }
    if (config.Find(key) != nullptr) {
      return Status::InvalidArgument("ConfigMap: duplicate key " + Quoted(key) +
                                     " at line " + std::to_string(line_number));
    }
    Entry entry;
    entry.key_begin = static_cast<size_t>(key.data() - all.data());
    entry.key_size = key.size();
    entry.value_begin = static_cast<size_t>(value.data() - all.data());
    entry.value_size = value.size();
    config.entries_.push_back(entry);
  }
  return config;
}

Result<ConfigMap> ConfigMap::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("ConfigMap: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  OASIS_ASSIGN_OR_RETURN(ConfigMap config, Parse(buffer.str()));
  return config;
}

const ConfigMap::Entry* ConfigMap::Find(std::string_view key) const {
  for (const Entry& entry : entries_) {
    if (KeyOf(entry) == key) return &entry;
  }
  return nullptr;
}

std::optional<std::string_view> ConfigMap::Read(std::string_view key) const {
  const Entry* entry = Find(key);
  if (entry == nullptr) return std::nullopt;
  entry->used = true;
  return ValueOf(*entry);
}

Result<std::string_view> ConfigMap::ReadRequired(std::string_view key) const {
  const std::optional<std::string_view> raw = Read(key);
  if (!raw) return Status::NotFound("ConfigMap: missing key " + Quoted(key));
  return *raw;
}

bool ConfigMap::Has(std::string_view key) const { return Find(key) != nullptr; }

Result<std::string> ConfigMap::GetString(std::string_view key) const {
  OASIS_ASSIGN_OR_RETURN(const std::string_view raw, ReadRequired(key));
  return std::string(raw);
}

std::string ConfigMap::GetStringOr(std::string_view key,
                                   std::string_view fallback) const {
  return std::string(Read(key).value_or(fallback));
}

Result<int64_t> ConfigMap::GetInt64(std::string_view key) const {
  OASIS_ASSIGN_OR_RETURN(const std::string_view raw, ReadRequired(key));
  return ToInt64(key, raw);
}

Result<int64_t> ConfigMap::GetInt64Or(std::string_view key,
                                      int64_t fallback) const {
  const std::optional<std::string_view> raw = Read(key);
  if (!raw) return fallback;
  return ToInt64(key, *raw);
}

Result<int> ConfigMap::GetIntOr(std::string_view key, int fallback) const {
  OASIS_ASSIGN_OR_RETURN(const int64_t value, GetInt64Or(key, fallback));
  return ToInt("ConfigMap: key " + Quoted(key), value);
}

Result<double> ConfigMap::GetDouble(std::string_view key) const {
  OASIS_ASSIGN_OR_RETURN(const std::string_view raw, ReadRequired(key));
  return ToDouble(key, raw);
}

Result<double> ConfigMap::GetDoubleOr(std::string_view key,
                                      double fallback) const {
  const std::optional<std::string_view> raw = Read(key);
  if (!raw) return fallback;
  return ToDouble(key, *raw);
}

Result<bool> ConfigMap::GetBool(std::string_view key) const {
  OASIS_ASSIGN_OR_RETURN(const std::string_view raw, ReadRequired(key));
  return ToBool(key, raw);
}

Result<bool> ConfigMap::GetBoolOr(std::string_view key, bool fallback) const {
  const std::optional<std::string_view> raw = Read(key);
  if (!raw) return fallback;
  return ToBool(key, *raw);
}

std::vector<std::string> ConfigMap::GetStringList(std::string_view key) const {
  std::vector<std::string> items;
  std::string_view rest = Read(key).value_or(std::string_view());
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string_view item = TrimWhitespace(rest.substr(0, comma));
    if (!item.empty()) items.emplace_back(item);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return items;
}

Status ConfigMap::CheckAllKeysUsed() const {
  std::string unused;
  for (const Entry& entry : entries_) {
    if (!entry.used) {
      if (!unused.empty()) unused += ", ";
      unused += Quoted(KeyOf(entry));
    }
  }
  if (!unused.empty()) {
    return Status::InvalidArgument("ConfigMap: unknown key(s): " + unused);
  }
  return Status::OK();
}

std::vector<std::string> ConfigMap::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& entry : entries_) keys.emplace_back(KeyOf(entry));
  return keys;
}

Result<CommandLine> CommandLine::Parse(int argc, char** argv) {
  CommandLine args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional_.push_back(arg);
      continue;
    }
    Flag flag;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flag.name = arg.substr(2);
    } else {
      flag.name = arg.substr(2, eq - 2);
      flag.value = arg.substr(eq + 1);
    }
    if (flag.name.empty()) {
      return Status::InvalidArgument("bad option '" + arg + "'");
    }
    if (args.Find(flag.name) != nullptr) {
      return Status::InvalidArgument("option '--" + flag.name +
                                     "' given twice");
    }
    args.flags_.push_back(std::move(flag));
  }
  return args;
}

const CommandLine::Flag* CommandLine::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool CommandLine::HasFlag(const std::string& name) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return false;
  flag->used = true;
  return true;
}

std::string CommandLine::FlagOr(const std::string& name,
                                const std::string& fallback) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return fallback;
  flag->used = true;
  return flag->value;
}

Result<int64_t> CommandLine::FlagInt64Or(const std::string& name,
                                         int64_t fallback) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return fallback;
  flag->used = true;
  const std::optional<int64_t> value = ParseInt64(flag->value);
  if (!value) {
    return Status::InvalidArgument("option '--" + name +
                                   "' is not an integer: '" + flag->value +
                                   "'");
  }
  return *value;
}

Result<double> CommandLine::FlagDoubleOr(const std::string& name,
                                         double fallback) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return fallback;
  flag->used = true;
  const std::optional<double> value = ParseDouble(flag->value);
  if (!value) {
    return Status::InvalidArgument("option '--" + name +
                                   "' is not a number: '" + flag->value + "'");
  }
  return *value;
}

Status CommandLine::CheckAllFlagsUsed() const {
  std::string unused;
  for (const Flag& flag : flags_) {
    if (!flag.used) {
      if (!unused.empty()) unused += ", ";
      unused += "'--" + flag.name + "'";
    }
  }
  if (!unused.empty()) {
    return Status::InvalidArgument("unknown option(s): " + unused);
  }
  return Status::OK();
}

Result<CommonFlags> ParseCommonFlags(const CommandLine& args) {
  CommonFlags flags;
  flags.telemetry_enabled = !args.HasFlag("no-telemetry");
  flags.metrics_out = args.FlagOr("metrics-out", "");
  flags.trace_out = args.FlagOr("trace-out", "");
  OASIS_ASSIGN_OR_RETURN(flags.heartbeat_seconds,
                         args.FlagDoubleOr("heartbeat", 0.0));
  if (args.HasFlag("heartbeat") && flags.heartbeat_seconds <= 0.0) {
    return Status::InvalidArgument(
        "--heartbeat wants a positive number of seconds");
  }
  if (args.HasFlag("threads")) {
    OASIS_ASSIGN_OR_RETURN(const int64_t wide, args.FlagInt64Or("threads", 0));
    OASIS_ASSIGN_OR_RETURN(const int threads, ToInt("option '--threads'", wide));
    if (threads < 0) {
      return Status::InvalidArgument("--threads must be >= 0 (0 = hardware "
                                     "concurrency)");
    }
    flags.threads = threads;
  }
  if (args.HasFlag("seed")) {
    OASIS_ASSIGN_OR_RETURN(const int64_t seed, args.FlagInt64Or("seed", 0));
    flags.seed = static_cast<uint64_t>(seed);
  }
  if (!flags.telemetry_enabled &&
      (!flags.metrics_out.empty() || !flags.trace_out.empty() ||
       flags.heartbeat_seconds > 0.0)) {
    return Status::InvalidArgument(
        "--no-telemetry contradicts --metrics-out/--trace-out/--heartbeat");
  }
  return flags;
}

}  // namespace experiments
}  // namespace oasis
