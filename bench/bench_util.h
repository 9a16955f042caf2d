#ifndef OASIS_BENCH_BENCH_UTIL_H_
#define OASIS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/number_format.h"

namespace oasis {
namespace bench {

/// Integer environment override with default (e.g. OASIS_REPEATS).
inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

/// String environment override with default (e.g. OASIS_BENCH_JSON).
inline std::string EnvString(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

/// Repeats per experiment configuration. The paper uses 1000; the default
/// here (50) keeps the full harness suite quick while leaving the expected-
/// error curves stable. Override with OASIS_REPEATS=1000 for paper fidelity.
inline int Repeats(int fallback = 50) { return EnvInt("OASIS_REPEATS", fallback); }

/// Deterministic base seed for the whole harness; override with OASIS_SEED.
inline uint64_t Seed() { return static_cast<uint64_t>(EnvInt("OASIS_SEED", 20170626)); }

/// Worker threads for the experiment runners' repeat fan-out; 0 (default)
/// means hardware concurrency. Override with OASIS_THREADS — results are
/// bit-identical for any value, only wall-clock changes.
inline int Threads() { return EnvInt("OASIS_THREADS", 0); }

/// Prints the standard harness banner.
inline void Banner(const char* experiment, const char* description) {
  std::printf("================================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("repeats=%d seed=%llu (override via OASIS_REPEATS / OASIS_SEED)\n",
              Repeats(), static_cast<unsigned long long>(Seed()));
  std::printf("================================================================\n\n");
}

// ---------------------------------------------------------------------------
// Machine-readable benchmark output.
//
// A minimal JSON emitter so every perf-relevant harness can drop a
// BENCH_*.json artifact next to its console output and the perf trajectory
// can be tracked across commits without scraping stdout. No third-party JSON
// dependency: results are flat records of string/number fields.
// ---------------------------------------------------------------------------

/// One benchmark measurement: a name, the primary throughput number, and
/// free-form numeric parameters/metrics (e.g. {"K": 30, "N": 100000,
/// "ns_per_step": 412.7}).
struct JsonBenchResult {
  std::string name;
  double steps_per_sec = 0.0;
  int64_t iterations = 0;
  std::map<std::string, double> metrics;
};

/// Collects JsonBenchResult records and writes them as one JSON document:
///   {"benchmark": "...", "seed": ..., "results": [{...}, ...]}
class JsonBenchWriter {
 public:
  explicit JsonBenchWriter(std::string benchmark_name)
      : benchmark_name_(std::move(benchmark_name)) {}

  void Add(JsonBenchResult result) { results_.push_back(std::move(result)); }

  size_t size() const { return results_.size(); }

  /// Collected results, mutable so callers can attach derived metrics that
  /// need to see several rows at once (e.g. speedup ratios across a thread
  /// sweep) before serialising.
  std::vector<JsonBenchResult>& mutable_results() { return results_; }

  /// Serialises all collected results. Numbers use %.17g (AppendDouble) so
  /// reading them back is lossless.
  std::string ToJson() const {
    std::string out;
    out += "{\n  \"benchmark\": \"" + Escape(benchmark_name_) + "\",\n";
    out += "  \"seed\": " + std::to_string(Seed()) + ",\n";
    out += "  \"results\": [";
    for (size_t i = 0; i < results_.size(); ++i) {
      const JsonBenchResult& r = results_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"name\": \"" + Escape(r.name) + "\"";
      out += ", \"steps_per_sec\": ";
      AppendDouble(r.steps_per_sec, &out);
      out += ", \"iterations\": " + std::to_string(r.iterations);
      for (const auto& [key, value] : r.metrics) {
        out += ", \"" + Escape(key) + "\": ";
        AppendDouble(value, &out);
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  /// Writes the JSON document to `path`; returns false on I/O failure.
  bool WriteToFile(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    const std::string json = ToJson();
    const size_t written = std::fwrite(json.data(), 1, json.size(), file);
    const bool ok = std::fclose(file) == 0 && written == json.size();
    return ok;
  }

 private:
  static std::string Escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string benchmark_name_;
  std::vector<JsonBenchResult> results_;
};

/// Output path for a bench's JSON artifact: OASIS_BENCH_JSON when set,
/// otherwise "BENCH_<name>.json" in the working directory.
inline std::string BenchJsonPath(const char* name) {
  return EnvString("OASIS_BENCH_JSON",
                   ("BENCH_" + std::string(name) + ".json").c_str());
}

}  // namespace bench
}  // namespace oasis

#endif  // OASIS_BENCH_BENCH_UTIL_H_
