#ifndef PILOTE_OBS_EXPORT_H_
#define PILOTE_OBS_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace pilote {
namespace obs {

// Exporters over the metrics registry + span profile.
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

// Human-readable multi-section report (counters, gauges, histogram
// percentiles, flat span profile, failpoint activity).
std::string ToReport(const MetricsSnapshot& snapshot);

// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
// "spans":{...},"failpoints":{...}}. Stable key order (sorted by name);
// labeled series use the key `name{key="value"}`.
std::string ToJson(const MetricsSnapshot& snapshot);

// Prometheus text exposition. Names map `a/b_ms` -> `pilote_a_b_ms`;
// counters gain the conventional `_total` suffix; histograms render as
// summaries with quantile labels 0.5/0.95/0.99/0.999 plus _sum/_count;
// failpoints render as pilote_failpoint_{hits,fires}_total{name="..."}.
std::string ToPrometheus(const MetricsSnapshot& snapshot);

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
