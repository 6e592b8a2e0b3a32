#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "common/failpoint.h"
#include "obs/exporter.h"
#include "obs/labels.h"
#include "obs/trace.h"

namespace pilote {
namespace obs {
namespace {

// Path for the at-exit JSON snapshot; leaked (atexit runs during static
// destruction, so this must not be a destructible static).
std::string*& ExitJsonPath() {
  static std::string* path = new std::string();
  return path;
}

void WriteMetricsJsonAtExit() {
  const std::string& path = *ExitJsonPath();
  if (path.empty()) return;
  Status status = WriteMetricsJson(path);
  if (!status.ok()) {
    std::fprintf(stderr, "--metrics-json: %s\n", status.ToString().c_str());
  }
}

}  // namespace

std::string SeriesName(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

void AppendJsonString(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void AppendHistogramJson(std::ostringstream& os, const HistogramSnapshot& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << JsonNumber(h.sum)
     << ",\"min\":" << JsonNumber(h.min) << ",\"max\":" << JsonNumber(h.max)
     << ",\"p50\":" << JsonNumber(h.Percentile(0.50))
     << ",\"p95\":" << JsonNumber(h.Percentile(0.95))
     << ",\"p99\":" << JsonNumber(h.Percentile(0.99))
     << ",\"p999\":" << JsonNumber(h.Percentile(0.999)) << "}";
}

Status WriteStringToFile(const std::string& path, const std::string& body,
                         bool append) {
  std::FILE* file = std::fopen(path.c_str(), append ? "a" : "w");
  if (file == nullptr) {
    return Status::IoError("cannot open output " + path);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != body.size() || !closed) {
    return Status::IoError("cannot write output " + path);
  }
  return Status::Ok();
}

MetricsSnapshot CaptureSnapshot() {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  FamilyRegistry::Global().AppendTo(&snapshot);
  snapshot.spans = SpanProfile();
  for (const fail::FailpointStats& stats :
       fail::FailpointRegistry::Global().Stats()) {
    snapshot.failpoints.push_back(
        {stats.name, stats.armed, stats.hits, stats.fires});
  }
  return snapshot;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\n\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSample& c = snapshot.counters[i];
    os << (i == 0 ? "\n" : ",\n");
    AppendJsonString(os, SeriesName(c.name, c.labels));
    os << ":" << c.value;
  }
  os << "},\n\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSample& g = snapshot.gauges[i];
    os << (i == 0 ? "\n" : ",\n");
    AppendJsonString(os, SeriesName(g.name, g.labels));
    os << ":" << JsonNumber(g.value);
  }
  os << "},\n\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& h = snapshot.histograms[i];
    os << (i == 0 ? "\n" : ",\n");
    AppendJsonString(os, SeriesName(h.name, h.labels));
    os << ":";
    AppendHistogramJson(os, h.snapshot);
  }
  os << "},\n\"spans\":{";
  for (size_t i = 0; i < snapshot.spans.size(); ++i) {
    const SpanSample& s = snapshot.spans[i];
    os << (i == 0 ? "\n" : ",\n");
    AppendJsonString(os, s.name);
    os << ":{\"count\":" << s.count
       << ",\"total_seconds\":" << JsonNumber(s.total_seconds)
       << ",\"self_seconds\":" << JsonNumber(s.self_seconds) << "}";
  }
  os << "},\n\"failpoints\":{";
  for (size_t i = 0; i < snapshot.failpoints.size(); ++i) {
    const FailpointSample& f = snapshot.failpoints[i];
    os << (i == 0 ? "\n" : ",\n");
    AppendJsonString(os, f.name);
    os << ":{\"armed\":" << (f.armed ? "true" : "false")
       << ",\"hits\":" << f.hits << ",\"fires\":" << f.fires << "}";
  }
  os << "}\n}\n";
  return os.str();
}

Status WriteMetricsJson(const std::string& path) {
  return WriteStringToFile(path, ToJson(CaptureSnapshot()));
}

void EnableMetricsJsonOutput(const std::string& path) {
  SetEnabled(true);
  const bool register_handler = ExitJsonPath()->empty();
  *ExitJsonPath() = path;
  if (register_handler && !path.empty()) {
    std::atexit(WriteMetricsJsonAtExit);
  }
}

int ConsumeMetricsFlags(int argc, char** argv) {
  int out = 1;
  std::string telemetry_prefix;
  int64_t telemetry_interval_ms = 0;  // 0 = keep the default
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      EnableMetricsJsonOutput(arg + 15);
    } else if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
      telemetry_prefix = arg + 16;
    } else if (std::strncmp(arg, "--telemetry-interval-ms=", 24) == 0) {
      telemetry_interval_ms = std::strtol(arg + 24, nullptr, 10);
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      SetEnabled(true);
      StartTraceCapture();
      // Written at exit alongside the metrics snapshot.
      static std::string* trace_path = new std::string();
      const bool register_handler = trace_path->empty();
      *trace_path = arg + 12;
      if (register_handler && !trace_path->empty()) {
        std::atexit(+[]() {
          // Re-fetch: last --trace-out wins.
          Status status = WriteChromeTrace(*trace_path);
          if (!status.ok()) {
            std::fprintf(stderr, "--trace-out: %s\n",
                         status.ToString().c_str());
          }
        });
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  if (!telemetry_prefix.empty()) {
    TelemetryOptions options;
    options.output_prefix = telemetry_prefix;
    if (telemetry_interval_ms > 0) options.interval_ms = telemetry_interval_ms;
    Status status = StartGlobalTelemetry(options);
    if (!status.ok()) {
      std::fprintf(stderr, "--telemetry-out: %s\n",
                   status.ToString().c_str());
    }
  }
  MaybeStartTelemetryFromEnv();
  return out;
}

}  // namespace obs
}  // namespace pilote
