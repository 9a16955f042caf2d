#include "experiments/summary.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/number_format.h"

namespace oasis {
namespace experiments {

namespace {

/// Token-level parser for the summary's own flat schema: one object whose
/// values are strings (no escapes needed — method/scenario names are plain),
/// numbers, booleans, or arrays of numbers.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  Status Parse() {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      OASIS_ASSIGN_OR_RETURN(const std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key '" + key + "'");
      SkipSpace();
      OASIS_RETURN_NOT_OK(ParseValue(key));
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      if (Consume('}')) break;
      return Error("expected ',' or '}' after value of '" + key + "'");
    }
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return Status::OK();
  }

  Result<std::string> GetString(const std::string& key) const {
    auto it = strings_.find(key);
    if (it == strings_.end()) return Missing(key, "string");
    used_.insert(key);
    return it->second;
  }

  Result<double> GetNumber(const std::string& key) const {
    auto it = numbers_.find(key);
    if (it == numbers_.end()) return Missing(key, "number");
    used_.insert(key);
    return it->second;
  }

  Result<bool> GetBool(const std::string& key) const {
    auto it = bools_.find(key);
    if (it == bools_.end()) return Missing(key, "bool");
    used_.insert(key);
    return it->second;
  }

  Result<std::vector<double>> GetArray(const std::string& key) const {
    auto it = arrays_.find(key);
    if (it == arrays_.end()) return Missing(key, "array");
    used_.insert(key);
    return it->second;
  }

  /// Fails on any field never consumed by a getter — schema drift guard.
  Status CheckAllFieldsUsed() const {
    std::string unknown;
    auto check = [&](const std::string& key) {
      if (used_.count(key) == 0) {
        if (!unknown.empty()) unknown += ", ";
        unknown += "'" + key + "'";
      }
    };
    for (const auto& [key, value] : strings_) check(key);
    for (const auto& [key, value] : numbers_) check(key);
    for (const auto& [key, value] : bools_) check(key);
    for (const auto& [key, value] : arrays_) check(key);
    if (!unknown.empty()) {
      return Status::InvalidArgument("RunSummary JSON: unknown field(s): " +
                                     unknown);
    }
    return Status::OK();
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("RunSummary JSON: " + message +
                                   " at offset " + std::to_string(pos_));
  }

  static Status Missing(const std::string& key, const std::string& kind) {
    return Status::InvalidArgument("RunSummary JSON: missing " + kind +
                                   " field '" + key + "'");
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') return Error("escapes are not supported");
      value.push_back(text_[pos_++]);
    }
    if (!Consume('"')) return Error("unterminated string");
    return value;
  }

  Result<double> ParseNumber() {
    const char* begin = text_.c_str() + pos_;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin || errno == ERANGE) return Error("expected a number");
    pos_ += static_cast<size_t>(end - begin);
    return value;
  }

  Status ParseValue(const std::string& key) {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '"') {
      OASIS_ASSIGN_OR_RETURN(strings_[key], ParseString());
      return Status::OK();
    }
    if (c == 't' || c == 'f') {
      const std::string word = c == 't' ? "true" : "false";
      if (text_.compare(pos_, word.size(), word) != 0) {
        return Error("expected true/false");
      }
      pos_ += word.size();
      bools_[key] = c == 't';
      return Status::OK();
    }
    if (c == '[') {
      ++pos_;
      std::vector<double> values;
      SkipSpace();
      if (!Consume(']')) {
        while (true) {
          OASIS_ASSIGN_OR_RETURN(const double value, ParseNumber());
          values.push_back(value);
          SkipSpace();
          if (Consume(',')) {
            SkipSpace();
            continue;
          }
          if (Consume(']')) break;
          return Error("expected ',' or ']' in array '" + key + "'");
        }
      }
      arrays_[key] = std::move(values);
      return Status::OK();
    }
    OASIS_ASSIGN_OR_RETURN(numbers_[key], ParseNumber());
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::map<std::string, std::string> strings_;
  std::map<std::string, double> numbers_;
  std::map<std::string, bool> bools_;
  std::map<std::string, std::vector<double>> arrays_;
  mutable std::set<std::string> used_;
};

}  // namespace

std::string RunSummaryToJson(const RunSummary& summary) {
  std::string out = "{\n";
  // Each field is one `  "key": value,\n` line; the last one has no comma.
  const auto key = [&out](const char* name) {
    out.append("  \"").append(name).append("\": ");
  };
  const auto number = [&](const char* name, double value) {
    key(name);
    AppendDouble(value, &out);
    out.append(",\n");
  };
  const auto integer = [&](const char* name, const std::string& value) {
    key(name);
    out.append(value).append(",\n");
  };
  const auto boolean = [&](const char* name, bool value) {
    key(name);
    out.append(value ? "true" : "false").append(",\n");
  };
  integer("schema_version", std::to_string(summary.schema_version));
  key("scenario");
  out.append("\"").append(summary.scenario).append("\",\n");
  key("method");
  out.append("\"").append(summary.method).append("\",\n");
  number("alpha", summary.alpha);
  integer("pool_size", std::to_string(summary.pool_size));
  integer("scenario_seed", std::to_string(summary.scenario_seed));
  integer("run_seed", std::to_string(summary.run_seed));
  number("true_f", summary.true_f);
  integer("budget", std::to_string(summary.budget));
  integer("repeats", std::to_string(summary.repeats));
  number("final_mean_estimate", summary.final_mean_estimate);
  number("final_mean_abs_error", summary.final_mean_abs_error);
  number("final_stddev", summary.final_stddev);
  number("final_frac_defined", summary.final_frac_defined);
  boolean("expect_sis_degeneracy", summary.expect_sis_degeneracy);
  boolean("degeneracy_monitored", summary.degeneracy_monitored);
  boolean("degeneracy_tripped", summary.degeneracy_tripped);
  number("final_ess_fraction", summary.final_ess_fraction);
  number("max_weight_share", summary.max_weight_share);
  number("verify_tolerance", summary.verify_tolerance);
  key("final_estimates");
  out.push_back('[');
  for (size_t i = 0; i < summary.final_estimates.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendDouble(summary.final_estimates[i], &out);
  }
  out.append("],\n");
  key("final_defined");
  out.push_back('[');
  for (size_t i = 0; i < summary.final_defined.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(std::to_string(int{summary.final_defined[i]}));
  }
  out.append("]\n}\n");
  return out;
}

Status WriteRunSummaryJson(const std::string& path, const RunSummary& summary) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("WriteRunSummaryJson: cannot open '" + path + "'");
  }
  out << RunSummaryToJson(summary);
  if (!out) {
    return Status::Internal("WriteRunSummaryJson: write failed for '" + path +
                            "'");
  }
  return Status::OK();
}

Result<RunSummary> ParseRunSummaryJson(const std::string& text) {
  FlatJsonParser parser(text);
  OASIS_RETURN_NOT_OK(parser.Parse());
  RunSummary summary;
  OASIS_ASSIGN_OR_RETURN(const double schema_version,
                         parser.GetNumber("schema_version"));
  summary.schema_version = static_cast<int64_t>(schema_version);
  if (summary.schema_version != 1) {
    return Status::InvalidArgument(
        "RunSummary JSON: unsupported schema_version " +
        std::to_string(summary.schema_version));
  }
  OASIS_ASSIGN_OR_RETURN(summary.scenario, parser.GetString("scenario"));
  OASIS_ASSIGN_OR_RETURN(summary.method, parser.GetString("method"));
  OASIS_ASSIGN_OR_RETURN(summary.alpha, parser.GetNumber("alpha"));
  OASIS_ASSIGN_OR_RETURN(const double pool_size,
                         parser.GetNumber("pool_size"));
  summary.pool_size = static_cast<int64_t>(pool_size);
  OASIS_ASSIGN_OR_RETURN(const double scenario_seed,
                         parser.GetNumber("scenario_seed"));
  summary.scenario_seed = static_cast<uint64_t>(scenario_seed);
  OASIS_ASSIGN_OR_RETURN(const double run_seed, parser.GetNumber("run_seed"));
  summary.run_seed = static_cast<uint64_t>(run_seed);
  OASIS_ASSIGN_OR_RETURN(summary.true_f, parser.GetNumber("true_f"));
  OASIS_ASSIGN_OR_RETURN(const double budget, parser.GetNumber("budget"));
  summary.budget = static_cast<int64_t>(budget);
  OASIS_ASSIGN_OR_RETURN(const double repeats, parser.GetNumber("repeats"));
  summary.repeats = static_cast<int64_t>(repeats);
  OASIS_ASSIGN_OR_RETURN(summary.final_mean_estimate,
                         parser.GetNumber("final_mean_estimate"));
  OASIS_ASSIGN_OR_RETURN(summary.final_mean_abs_error,
                         parser.GetNumber("final_mean_abs_error"));
  OASIS_ASSIGN_OR_RETURN(summary.final_stddev,
                         parser.GetNumber("final_stddev"));
  OASIS_ASSIGN_OR_RETURN(summary.final_frac_defined,
                         parser.GetNumber("final_frac_defined"));
  OASIS_ASSIGN_OR_RETURN(summary.expect_sis_degeneracy,
                         parser.GetBool("expect_sis_degeneracy"));
  OASIS_ASSIGN_OR_RETURN(summary.degeneracy_monitored,
                         parser.GetBool("degeneracy_monitored"));
  OASIS_ASSIGN_OR_RETURN(summary.degeneracy_tripped,
                         parser.GetBool("degeneracy_tripped"));
  OASIS_ASSIGN_OR_RETURN(summary.final_ess_fraction,
                         parser.GetNumber("final_ess_fraction"));
  OASIS_ASSIGN_OR_RETURN(summary.max_weight_share,
                         parser.GetNumber("max_weight_share"));
  OASIS_ASSIGN_OR_RETURN(summary.verify_tolerance,
                         parser.GetNumber("verify_tolerance"));
  OASIS_ASSIGN_OR_RETURN(summary.final_estimates,
                         parser.GetArray("final_estimates"));
  OASIS_ASSIGN_OR_RETURN(const std::vector<double> defined,
                         parser.GetArray("final_defined"));
  summary.final_defined.reserve(defined.size());
  for (double value : defined) {
    if (value != 0.0 && value != 1.0) {
      return Status::InvalidArgument(
          "RunSummary JSON: final_defined entries must be 0 or 1");
    }
    summary.final_defined.push_back(value != 0.0 ? 1 : 0);
  }
  if (summary.final_estimates.size() != summary.final_defined.size()) {
    return Status::InvalidArgument(
        "RunSummary JSON: final_estimates and final_defined lengths differ");
  }
  OASIS_RETURN_NOT_OK(parser.CheckAllFieldsUsed());
  return summary;
}

Result<RunSummary> ReadRunSummaryJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("ReadRunSummaryJson: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseRunSummaryJson(buffer.str());
}

}  // namespace experiments
}  // namespace oasis
