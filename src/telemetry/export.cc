#include "telemetry/export.h"

#include <cstdio>
#include <fstream>

#include "common/number_format.h"

namespace oasis {
namespace telemetry {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// metric names and help strings are plain ASCII by convention, but the
/// writer must never emit invalid JSON whatever it is fed.
void AppendJsonString(std::string* out, const std::string& text) {
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Prometheus label block `{k1="v1",k2="v2"}` (empty string for no labels).
/// `extra_*` appends one more pair (the histogram `le` label).
void AppendPromLabels(std::string* out, const LabelSet& labels,
                      const char* extra_key = nullptr,
                      const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(key);
    out->append("=\"");
    out->append(value);
    out->append("\"");
  }
  if (extra_key != nullptr) {
    if (!first) out->push_back(',');
    out->append(extra_key);
    out->append("=\"");
    out->append(extra_value);
    out->append("\"");
  }
  out->push_back('}');
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string PrometheusText(const MetricRegistry& registry) {
  const std::vector<MetricSnapshot> metrics = registry.Snapshot();
  std::string out;
  std::string last_family;
  for (const MetricSnapshot& m : metrics) {
    if (m.name != last_family) {
      last_family = m.name;
      out.append("# HELP ").append(m.name).append(" ").append(m.help);
      out.push_back('\n');
      out.append("# TYPE ").append(m.name).append(" ").append(
          TypeName(m.type));
      out.push_back('\n');
    }
    switch (m.type) {
      case MetricType::kCounter:
        out.append(m.name);
        AppendPromLabels(&out, m.labels);
        out.push_back(' ');
        AppendInt64(m.counter_value, &out);
        out.push_back('\n');
        break;
      case MetricType::kGauge:
        out.append(m.name);
        AppendPromLabels(&out, m.labels);
        out.push_back(' ');
        AppendDouble(m.gauge_value, &out);
        out.push_back('\n');
        break;
      case MetricType::kHistogram: {
        int64_t cumulative = 0;
        for (size_t i = 0; i < m.bucket_bounds.size(); ++i) {
          cumulative += m.bucket_counts[i];
          std::string le;
          AppendDouble(m.bucket_bounds[i], &le);
          out.append(m.name).append("_bucket");
          AppendPromLabels(&out, m.labels, "le", le);
          out.push_back(' ');
          AppendInt64(cumulative, &out);
          out.push_back('\n');
        }
        cumulative += m.overflow_count;
        out.append(m.name).append("_bucket");
        AppendPromLabels(&out, m.labels, "le", "+Inf");
        out.push_back(' ');
        AppendInt64(cumulative, &out);
        out.push_back('\n');
        out.append(m.name).append("_sum");
        AppendPromLabels(&out, m.labels);
        out.push_back(' ');
        AppendDouble(m.sum, &out);
        out.push_back('\n');
        out.append(m.name).append("_count");
        AppendPromLabels(&out, m.labels);
        out.push_back(' ');
        AppendInt64(m.total_count, &out);
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

std::string MetricsJson(const MetricRegistry& registry) {
  const std::vector<MetricSnapshot> metrics = registry.Snapshot();
  std::string out;
  out.append("{\n  \"telemetry_schema_version\": 1,\n  \"metrics\": [");
  bool first = true;
  for (const MetricSnapshot& m : metrics) {
    out.append(first ? "\n" : ",\n");
    first = false;
    out.append("    {\"name\": ");
    AppendJsonString(&out, m.name);
    out.append(", \"type\": \"").append(TypeName(m.type)).append("\"");
    out.append(", \"help\": ");
    AppendJsonString(&out, m.help);
    out.append(", \"labels\": {");
    for (size_t i = 0; i < m.labels.size(); ++i) {
      if (i > 0) out.append(", ");
      AppendJsonString(&out, m.labels[i].first);
      out.append(": ");
      AppendJsonString(&out, m.labels[i].second);
    }
    out.append("}");
    switch (m.type) {
      case MetricType::kCounter:
        out.append(", \"value\": ");
        AppendInt64(m.counter_value, &out);
        break;
      case MetricType::kGauge:
        out.append(", \"value\": ");
        AppendDouble(m.gauge_value, &out);
        break;
      case MetricType::kHistogram:
        out.append(", \"buckets\": [");
        for (size_t i = 0; i < m.bucket_bounds.size(); ++i) {
          if (i > 0) out.append(", ");
          out.append("{\"le\": ");
          AppendDouble(m.bucket_bounds[i], &out);
          out.append(", \"count\": ");
          AppendInt64(m.bucket_counts[i], &out);
          out.append("}");
        }
        out.append("], \"inf_count\": ");
        AppendInt64(m.overflow_count, &out);
        out.append(", \"sum\": ");
        AppendDouble(m.sum, &out);
        out.append(", \"count\": ");
        AppendInt64(m.total_count, &out);
        break;
    }
    out.append("}");
  }
  out.append("\n  ]\n}\n");
  return out;
}

std::string TraceJson(std::span<const TraceEvent> events) {
  std::string out;
  out.append("{\"traceEvents\":[");
  bool first = true;
  for (const TraceEvent& event : events) {
    out.append(first ? "\n" : ",\n");
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, event.name);
    out.append(",\"cat\":");
    AppendJsonString(&out, event.category);
    out.append(",\"ph\":\"X\",\"ts\":");
    AppendDouble(event.ts_us, &out);
    out.append(",\"dur\":");
    AppendDouble(event.dur_us, &out);
    out.append(",\"pid\":1,\"tid\":");
    AppendInt64(event.tid, &out);
    out.append("}");
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

std::string TraceJson(const TraceCollector& collector) {
  const std::vector<TraceEvent> events = collector.Snapshot();
  return TraceJson(std::span<const TraceEvent>(events));
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    return Status::Internal("telemetry: cannot write '" + path + "'");
  }
  return Status::OK();
}

}  // namespace telemetry
}  // namespace oasis
