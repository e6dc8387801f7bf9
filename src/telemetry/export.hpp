// Metric exporters — JSON snapshot, Prometheus text format, human table.
//
// All three render the same Registry::snapshot(), so every consumer (the
// PARFW_METRICS env knob, trace_dump --mode metrics, the bench harness,
// CI artifact upload) goes through one export path. Output is
// deterministic for a deterministic registry: rows are sorted by
// (name, labels) and numbers are printed with a fixed format — the
// golden-file tests pin the exact bytes.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/metrics.hpp"

namespace parfw::telemetry {

/// `s` as the body of a JSON string literal: quote, backslash and every
/// control character escaped (\n, \t, else \u00XX). Shared by to_json
/// and the incident log (monitor/incident.cpp).
std::string json_escape(const std::string& s);

/// JSON document: {"metrics":[{"name":...,"labels":{...},"type":...,...}]}.
/// Counters print as integers; histograms as
/// {count,sum,min,max,p50,p95,p99}.
void to_json(const Registry& r, std::ostream& os);

/// Prometheus text exposition format. Metric names are sanitised
/// (non-alphanumerics -> '_') and prefixed "parfw_"; histograms are
/// emitted as summaries (quantile series plus _sum/_count).
void to_prometheus(const Registry& r, std::ostream& os);

/// Column-aligned human table (util/table), one row per metric.
std::string to_table(const Registry& r);

/// Export formats selectable via the PARFW_METRICS env knob.
enum class ExportFormat : std::uint8_t { kNone, kJson, kProm, kTable };

/// Parse PARFW_METRICS (json|prom|table; any other non-empty value means
/// "enabled, table format"); kNone when unset/empty.
ExportFormat env_format();

/// Render in the given format (kNone writes nothing).
void dump(const Registry& r, ExportFormat f, std::ostream& os);

/// Convenience for tools/benches: when PARFW_METRICS is set, dump the
/// global registry to `os` in the requested format. Returns true if
/// anything was written.
bool dump_env(std::ostream& os);

}  // namespace parfw::telemetry
