#ifndef PILOTE_OBS_EXPORT_H_
#define PILOTE_OBS_EXPORT_H_

#include <sstream>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace pilote {
namespace obs {

// The one JSON writer over the metrics registry, span profile and
// failpoint stats: ToJson renders a whole snapshot (the --metrics-json
// artifact), and the telemetry exporter (obs/exporter.h) builds its per-tick
// JSONL records from the same helpers.
//
// Environment contract (read once at first use):
//   PILOTE_METRICS=1       enable recording (any value but "0")
//   PILOTE_TRACE_OUT=path  enable recording + buffer Chrome trace events,
//                          written to `path` at process exit
//   PILOTE_TELEMETRY_OUT=prefix      enable recording + start the streaming
//                                    TelemetryExporter (see obs/exporter.h);
//                                    applied by ConsumeMetricsFlags
//   PILOTE_TELEMETRY_INTERVAL_MS=n   exporter tick interval (default 1000)
//
// Programmatic contract: EnableMetricsJsonOutput(path) is what the bench
// harness's --metrics-json flag calls — it enables recording and arranges
// for a JSON snapshot at process exit, so every bench run can leave a
// machine-readable perf record next to its stdout tables.

// Registry metrics + labeled family slots + span profile + failpoint stats
// merged into one snapshot (the single chaos/perf artifact).
MetricsSnapshot CaptureSnapshot();

// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
// "spans":{...},"failpoints":{...}}. Registry series come sorted by name,
// then labeled-family series under the key `name{key="value"}`; spans come
// in descending total time. Histograms render as AppendHistogramJson does.
std::string ToJson(const MetricsSnapshot& snapshot);

// `name`, or `name{labels}` for a labeled series: the JSON key of a series.
std::string SeriesName(const std::string& name, const std::string& labels);

// `value` as a JSON number; "null" for NaN/Inf, which JSON cannot hold.
std::string JsonNumber(double value);

// `s` as a quoted JSON string, with quotes, backslashes and control
// characters escaped.
void AppendJsonString(std::ostringstream& os, const std::string& s);

// {"count":n,"sum":s,"min":a,"max":b,"p50":..,"p95":..,"p99":..,"p999":..},
// the quantiles interpolated from the buckets (HistogramSnapshot::Percentile).
void AppendHistogramJson(std::ostringstream& os, const HistogramSnapshot& h);

// Writes `body` to `path`, replacing it, or appending with `append`.
Status WriteStringToFile(const std::string& path, const std::string& body,
                         bool append = false);

// Captures a snapshot and writes it as JSON.
Status WriteMetricsJson(const std::string& path);

// Enables recording now and writes a JSON snapshot to `path` at process
// exit (last call wins). Used by the bench --metrics-json flag.
void EnableMetricsJsonOutput(const std::string& path);

// Strips observability flags (--metrics-json=PATH, --trace-out=PATH,
// --telemetry-out=PREFIX, --telemetry-interval-ms=N) from an argv the
// downstream parser does not understand (google-benchmark rejects unknown
// flags), applying their effects, and returns the new argc. argv[0] is
// preserved. Also starts the streaming exporter when PILOTE_TELEMETRY_OUT
// is set in the environment.
int ConsumeMetricsFlags(int argc, char** argv);

}  // namespace obs
}  // namespace pilote

#endif  // PILOTE_OBS_EXPORT_H_
