#include "src/obs/export.h"

namespace witobs {

namespace {

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

std::string SeriesLine(const std::string& name, const Labels& labels,
                       const std::string& extra_label, const std::string& value) {
  std::string labels_str = CanonicalLabels(labels);
  if (!extra_label.empty()) {
    labels_str += labels_str.empty() ? extra_label : "," + extra_label;
  }
  std::string line = name;
  if (!labels_str.empty()) {
    line += "{" + labels_str + "}";
  }
  line += " " + value + "\n";
  return line;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ",";
    }
    first = false;
    out.append("\"").append(JsonEscape(key)).append("\":\"").append(JsonEscape(value)).append("\"");
  }
  out += "}";
  return out;
}

// Prometheus HELP text escaping: only backslash and newline (label-value
// escaping, which also covers quotes, lives in CanonicalLabels).
std::string EscapeHelp(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string JsonEscape(const std::string& in) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (char c : in) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (uc < 0x20) {
      out += "\\u00";
      out += kHex[(uc >> 4) & 0xf];
      out += kHex[uc & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderPrometheus(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& family : registry.Snapshot()) {
    if (!family.help.empty()) {
      out += "# HELP " + family.name + " " + EscapeHelp(family.help) + "\n";
    }
    out += "# TYPE " + family.name + " " + std::string(TypeName(family.type)) + "\n";
    for (const auto& series : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          out += SeriesLine(family.name, series.labels, "",
                            std::to_string(series.counter->Value()));
          break;
        case MetricType::kGauge:
          out += SeriesLine(family.name, series.labels, "",
                            std::to_string(series.gauge->Value()));
          break;
        case MetricType::kHistogram: {
          const Histogram& hist = *series.histogram;
          uint64_t cumulative = 0;
          for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
            cumulative += hist.BucketCount(i);
            out += SeriesLine(family.name + "_bucket", series.labels,
                              "le=\"" + std::to_string(Histogram::BucketBound(i)) + "\"",
                              std::to_string(cumulative));
          }
          cumulative += hist.BucketCount(Histogram::kNumBuckets);
          out += SeriesLine(family.name + "_bucket", series.labels, "le=\"+Inf\"",
                            std::to_string(cumulative));
          out += SeriesLine(family.name + "_sum", series.labels, "",
                            std::to_string(hist.SumNs()));
          out += SeriesLine(family.name + "_count", series.labels, "",
                            std::to_string(hist.Count()));
          break;
        }
      }
    }
  }
  return out;
}

std::string RenderJson(const MetricsRegistry& registry) {
  std::string out = "{";
  bool first_family = true;
  for (const auto& family : registry.Snapshot()) {
    if (!first_family) {
      out += ",";
    }
    first_family = false;
    out.append("\"").append(JsonEscape(family.name)).append("\":{\"type\":\"");
    out.append(TypeName(family.type)).append("\",\"series\":[");
    bool first_series = true;
    for (const auto& series : family.series) {
      if (!first_series) {
        out += ",";
      }
      first_series = false;
      out += "{\"labels\":" + JsonLabels(series.labels);
      switch (family.type) {
        case MetricType::kCounter:
          out += ",\"value\":" + std::to_string(series.counter->Value());
          break;
        case MetricType::kGauge:
          out += ",\"value\":" + std::to_string(series.gauge->Value());
          break;
        case MetricType::kHistogram: {
          const Histogram& hist = *series.histogram;
          out += ",\"count\":" + std::to_string(hist.Count()) +
                 ",\"sum_ns\":" + std::to_string(hist.SumNs()) +
                 ",\"p50_ns\":" + std::to_string(hist.Percentile(50)) +
                 ",\"p95_ns\":" + std::to_string(hist.Percentile(95)) +
                 ",\"p99_ns\":" + std::to_string(hist.Percentile(99));
          break;
        }
      }
      out += "}";
    }
    out += "]}";
  }
  out += "}";
  return out;
}

std::string RenderTraceDump(const Tracer& tracer) {
  std::string out;
  for (const auto& span : tracer.Snapshot()) {
    out += "[" + (span.correlation_id.empty() ? std::string("-") : span.correlation_id) + "] ";
    for (uint32_t i = 0; i < span.depth; ++i) {
      out += "  ";
    }
    out += span.name + " @" + std::to_string(span.start_ns) + "ns +" +
           std::to_string(span.duration_ns) + "ns (thread " +
           std::to_string(span.thread_id) + ")\n";
  }
  uint64_t dropped = tracer.dropped();
  if (dropped > 0) {
    out += "... " + std::to_string(dropped) + " spans dropped (ring full)\n";
  }
  return out;
}

}  // namespace witobs
