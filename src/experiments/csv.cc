#include "experiments/csv.h"

#include <fstream>
#include <optional>
#include <sstream>

#include "common/number_format.h"
#include "experiments/config.h"

namespace oasis {
namespace experiments {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell.push_back(c);
    }
  }
  cells.push_back(cell);
  return cells;
}

Status WritePoolCsv(const std::string& path, const ScoredPool& pool,
                    const std::vector<uint8_t>* truth) {
  OASIS_RETURN_NOT_OK(pool.Validate());
  if (truth != nullptr &&
      static_cast<int64_t>(truth->size()) != pool.size()) {
    return Status::InvalidArgument("WritePoolCsv: truth size mismatch");
  }
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("WritePoolCsv: cannot open '" + path + "'");
  }
  out << (truth != nullptr ? "score,prediction,truth\n" : "score,prediction\n");
  char buffer[kNumberChars];
  for (int64_t i = 0; i < pool.size(); ++i) {
    const char* end = WriteDouble(pool.scores[static_cast<size_t>(i)], buffer);
    out.write(buffer, end - buffer);
    out << ',' << int{pool.predictions[static_cast<size_t>(i)]};
    if (truth != nullptr) out << ',' << int{(*truth)[static_cast<size_t>(i)]};
    out << '\n';
  }
  if (!out) {
    return Status::Internal("WritePoolCsv: write failed for '" + path + "'");
  }
  return Status::OK();
}

Result<LoadedPool> ReadPoolCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("ReadPoolCsv: cannot open '" + path + "'");
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("ReadPoolCsv: empty file");
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  if (header.size() < 2 || header[0] != "score" || header[1] != "prediction") {
    return Status::InvalidArgument(
        "ReadPoolCsv: expected header 'score,prediction[,truth]'");
  }
  const bool has_truth = header.size() >= 3 && header[2] == "truth";

  LoadedPool loaded;
  loaded.has_truth = has_truth;
  bool all_unit_interval = true;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() < (has_truth ? 3u : 2u)) {
      return Status::InvalidArgument("ReadPoolCsv: short row at line " +
                                     std::to_string(line_number));
    }
    const std::optional<double> parsed = ParseDouble(cells[0]);
    if (!parsed) {
      return Status::InvalidArgument("ReadPoolCsv: bad score at line " +
                                     std::to_string(line_number));
    }
    const double score = *parsed;
    const std::string& pred = cells[1];
    if (pred != "0" && pred != "1") {
      return Status::InvalidArgument("ReadPoolCsv: bad prediction at line " +
                                     std::to_string(line_number));
    }
    loaded.pool.scores.push_back(score);
    loaded.pool.predictions.push_back(pred == "1" ? 1 : 0);
    if (score < 0.0 || score > 1.0) all_unit_interval = false;
    if (has_truth) {
      const std::string& truth = cells[2];
      if (truth != "0" && truth != "1") {
        return Status::InvalidArgument("ReadPoolCsv: bad truth at line " +
                                       std::to_string(line_number));
      }
      loaded.truth.push_back(truth == "1" ? 1 : 0);
    }
  }
  if (loaded.pool.scores.empty()) {
    return Status::InvalidArgument("ReadPoolCsv: no data rows");
  }
  loaded.pool.scores_are_probabilities = all_unit_interval;
  loaded.pool.threshold = all_unit_interval ? 0.5 : 0.0;
  OASIS_RETURN_NOT_OK(loaded.pool.Validate());
  return loaded;
}

Status WriteCurvesCsv(const std::string& path,
                      const std::vector<ErrorCurve>& curves) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("WriteCurvesCsv: cannot open '" + path + "'");
  }
  // Cost-curve output format: when any curve was priced through a remote
  // oracle, three extra columns carry the mean cumulative round trips,
  // simulated latency (seconds) and monetary label cost at each checkpoint;
  // curves without cost data leave those cells empty. Fault-tolerant runs
  // (RunnerOptions::retry_policy) add mean cumulative retries/give_ups
  // columns the same way, and samplers with a degeneracy monitor add a mean
  // per-checkpoint ESS column. Without any of those, the header and rows are
  // the historical six columns, unchanged.
  bool any_remote = false;
  bool any_fault = false;
  bool any_degeneracy = false;
  for (const ErrorCurve& curve : curves) {
    any_remote |= curve.has_remote_cost;
    any_fault |= curve.has_fault_stats;
    any_degeneracy |= curve.has_degeneracy_stats;
  }
  out << "method,labels,mean_abs_error,stddev,mean_estimate,frac_defined";
  if (any_remote) out << ",round_trips,sim_seconds,label_cost";
  if (any_fault) out << ",retries,give_ups";
  if (any_degeneracy) out << ",ess";
  out << '\n';
  for (const ErrorCurve& curve : curves) {
    for (size_t i = 0; i < curve.budgets.size(); ++i) {
      out << curve.method << ',' << curve.budgets[i] << ','
          << curve.mean_abs_error[i] << ',' << curve.stddev[i] << ','
          << curve.mean_estimate[i] << ',' << curve.frac_defined[i];
      if (any_remote) {
        if (curve.has_remote_cost) {
          out << ',' << curve.mean_round_trips[i] << ','
              << curve.mean_simulated_seconds[i] << ','
              << curve.mean_label_cost[i];
        } else {
          out << ",,,";
        }
      }
      if (any_fault) {
        if (curve.has_fault_stats) {
          out << ',' << curve.mean_retries[i] << ',' << curve.mean_give_ups[i];
        } else {
          out << ",,";
        }
      }
      if (any_degeneracy) {
        if (curve.has_degeneracy_stats) {
          out << ',' << curve.mean_ess[i];
        } else {
          out << ',';
        }
      }
      out << '\n';
    }
  }
  if (!out) {
    return Status::Internal("WriteCurvesCsv: write failed for '" + path + "'");
  }
  return Status::OK();
}

namespace {

Result<double> ParseCsvDouble(const std::string& cell, size_t line_number) {
  const std::optional<double> value = ParseDouble(cell);
  if (!value) {
    return Status::InvalidArgument("ReadCurvesCsv: bad number '" + cell +
                                   "' at line " + std::to_string(line_number));
  }
  return *value;
}

}  // namespace

Result<std::vector<ErrorCurve>> ReadCurvesCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("ReadCurvesCsv: cannot open '" + path + "'");
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("ReadCurvesCsv: empty file");
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  const std::vector<std::string> required = {
      "method", "labels", "mean_abs_error", "stddev", "mean_estimate",
      "frac_defined"};
  if (header.size() < required.size()) {
    return Status::InvalidArgument("ReadCurvesCsv: short header");
  }
  for (size_t i = 0; i < required.size(); ++i) {
    if (header[i] != required[i]) {
      return Status::InvalidArgument("ReadCurvesCsv: expected column '" +
                                     required[i] + "', found '" + header[i] +
                                     "'");
    }
  }
  // Optional column groups appear in WriteCurvesCsv order; resolve each
  // group's starting index from the header rather than assuming which groups
  // are present.
  size_t next = required.size();
  size_t remote_at = 0;
  bool has_remote = false;
  if (next + 3 <= header.size() && header[next] == "round_trips") {
    has_remote = true;
    remote_at = next;
    next += 3;
  }
  size_t fault_at = 0;
  bool has_fault = false;
  if (next + 2 <= header.size() && header[next] == "retries") {
    has_fault = true;
    fault_at = next;
    next += 2;
  }
  size_t ess_at = 0;
  bool has_ess = false;
  if (next < header.size() && header[next] == "ess") {
    has_ess = true;
    ess_at = next;
    next += 1;
  }
  if (next != header.size()) {
    return Status::InvalidArgument("ReadCurvesCsv: unexpected column '" +
                                   header[next] + "'");
  }

  std::vector<ErrorCurve> curves;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() != header.size()) {
      return Status::InvalidArgument("ReadCurvesCsv: row width mismatch at line " +
                                     std::to_string(line_number));
    }
    if (curves.empty() || curves.back().method != cells[0]) {
      curves.emplace_back();
      curves.back().method = cells[0];
    }
    ErrorCurve& curve = curves.back();
    OASIS_ASSIGN_OR_RETURN(const double labels,
                           ParseCsvDouble(cells[1], line_number));
    curve.budgets.push_back(static_cast<int64_t>(labels));
    OASIS_ASSIGN_OR_RETURN(const double mean_abs_error,
                           ParseCsvDouble(cells[2], line_number));
    curve.mean_abs_error.push_back(mean_abs_error);
    OASIS_ASSIGN_OR_RETURN(const double stddev,
                           ParseCsvDouble(cells[3], line_number));
    curve.stddev.push_back(stddev);
    OASIS_ASSIGN_OR_RETURN(const double mean_estimate,
                           ParseCsvDouble(cells[4], line_number));
    curve.mean_estimate.push_back(mean_estimate);
    OASIS_ASSIGN_OR_RETURN(const double frac_defined,
                           ParseCsvDouble(cells[5], line_number));
    curve.frac_defined.push_back(frac_defined);
    if (has_remote && !cells[remote_at].empty()) {
      curve.has_remote_cost = true;
      OASIS_ASSIGN_OR_RETURN(const double trips,
                             ParseCsvDouble(cells[remote_at], line_number));
      curve.mean_round_trips.push_back(trips);
      OASIS_ASSIGN_OR_RETURN(const double seconds,
                             ParseCsvDouble(cells[remote_at + 1], line_number));
      curve.mean_simulated_seconds.push_back(seconds);
      OASIS_ASSIGN_OR_RETURN(const double cost,
                             ParseCsvDouble(cells[remote_at + 2], line_number));
      curve.mean_label_cost.push_back(cost);
    }
    if (has_fault && !cells[fault_at].empty()) {
      curve.has_fault_stats = true;
      OASIS_ASSIGN_OR_RETURN(const double retries,
                             ParseCsvDouble(cells[fault_at], line_number));
      curve.mean_retries.push_back(retries);
      OASIS_ASSIGN_OR_RETURN(const double give_ups,
                             ParseCsvDouble(cells[fault_at + 1], line_number));
      curve.mean_give_ups.push_back(give_ups);
    }
    if (has_ess && !cells[ess_at].empty()) {
      curve.has_degeneracy_stats = true;
      OASIS_ASSIGN_OR_RETURN(const double ess,
                             ParseCsvDouble(cells[ess_at], line_number));
      curve.mean_ess.push_back(ess);
    }
  }
  if (curves.empty()) {
    return Status::InvalidArgument("ReadCurvesCsv: no data rows");
  }
  return curves;
}

}  // namespace experiments
}  // namespace oasis
