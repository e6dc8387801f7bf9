#include "telemetry/export.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/table.hpp"

namespace parfw::telemetry {

namespace {

/// Deterministic double formatting: up to 9 significant digits, no
/// locale dependence ("%.9g" prints integers as integers).
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_u64(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, static_cast<std::uint64_t>(v));
  return buf;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Split "k=v,k=v" into pairs (empty string -> empty list).
std::vector<std::pair<std::string, std::string>> parse_labels(
    const std::string& labels) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = 0;
  while (pos < labels.size()) {
    std::size_t comma = labels.find(',', pos);
    if (comma == std::string::npos) comma = labels.size();
    const std::string kv = labels.substr(pos, comma - pos);
    const std::size_t eq = kv.find('=');
    if (eq != std::string::npos)
      out.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    else if (!kv.empty())
      out.emplace_back(kv, "");
    pos = comma + 1;
  }
  return out;
}

std::string prom_name(const std::string& name) {
  std::string out = "parfw_";
  for (char c : name)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  return out;
}

std::string prom_labels(const std::string& labels,
                        const std::string& extra = "") {
  const auto kv = parse_labels(labels);
  if (kv.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + v + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"' << json_escape(s) << '"';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void to_json(const Registry& r, std::ostream& os) {
  const std::vector<MetricRow> rows = r.snapshot();
  os << "{\"metrics\":[";
  bool first = true;
  for (const MetricRow& row : rows) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\":";
    json_string(os, row.name);
    os << ",\"labels\":{";
    bool lf = true;
    for (const auto& [k, v] : parse_labels(row.labels)) {
      if (!lf) os << ",";
      lf = false;
      json_string(os, k);
      os << ":";
      json_string(os, v);
    }
    os << "},\"type\":\"" << kind_name(row.kind) << "\",";
    switch (row.kind) {
      case MetricKind::kCounter:
        os << "\"value\":" << fmt_u64(row.value);
        break;
      case MetricKind::kGauge:
        os << "\"value\":" << fmt(row.value);
        break;
      case MetricKind::kHistogram:
        os << "\"count\":" << row.hist.count << ",\"sum\":" << fmt(row.hist.sum)
           << ",\"min\":" << fmt(row.hist.min)
           << ",\"max\":" << fmt(row.hist.max)
           << ",\"p50\":" << fmt(row.hist.p50)
           << ",\"p95\":" << fmt(row.hist.p95)
           << ",\"p99\":" << fmt(row.hist.p99);
        break;
    }
    os << "}";
  }
  os << "\n]}\n";
}

void to_prometheus(const Registry& r, std::ostream& os) {
  const std::vector<MetricRow> rows = r.snapshot();
  std::string last_name;
  for (const MetricRow& row : rows) {
    const std::string pn = prom_name(row.name);
    if (row.name != last_name) {
      os << "# TYPE " << pn << " "
         << (row.kind == MetricKind::kHistogram ? "summary"
                                                : kind_name(row.kind))
         << "\n";
      last_name = row.name;
    }
    switch (row.kind) {
      case MetricKind::kCounter:
        os << pn << prom_labels(row.labels) << " " << fmt_u64(row.value)
           << "\n";
        break;
      case MetricKind::kGauge:
        os << pn << prom_labels(row.labels) << " " << fmt(row.value) << "\n";
        break;
      case MetricKind::kHistogram:
        for (const auto& [q, v] :
             {std::pair<const char*, double>{"0.5", row.hist.p50},
              {"0.95", row.hist.p95},
              {"0.99", row.hist.p99}})
          os << pn << prom_labels(row.labels, std::string("quantile=\"") + q +
                                                  "\"")
             << " " << fmt(v) << "\n";
        os << pn << "_sum" << prom_labels(row.labels) << " "
           << fmt(row.hist.sum) << "\n";
        os << pn << "_count" << prom_labels(row.labels) << " "
           << row.hist.count << "\n";
        break;
    }
  }
}

std::string to_table(const Registry& r) {
  Table t({"metric", "labels", "type", "count", "value/sum", "p50", "p95",
           "p99"});
  for (const MetricRow& row : r.snapshot()) {
    switch (row.kind) {
      case MetricKind::kCounter:
        t.add_row({row.name, row.labels, "counter", "", fmt_u64(row.value), "",
                   "", ""});
        break;
      case MetricKind::kGauge:
        t.add_row(
            {row.name, row.labels, "gauge", "", fmt(row.value), "", "", ""});
        break;
      case MetricKind::kHistogram:
        t.add_row({row.name, row.labels, "hist",
                   fmt_u64(static_cast<double>(row.hist.count)),
                   fmt(row.hist.sum), fmt(row.hist.p50), fmt(row.hist.p95),
                   fmt(row.hist.p99)});
        break;
    }
  }
  return t.str();
}

ExportFormat env_format() {
  const char* e = std::getenv("PARFW_METRICS");
  if (e == nullptr || e[0] == '\0') return ExportFormat::kNone;
  const std::string v(e);
  if (v == "json") return ExportFormat::kJson;
  if (v == "prom") return ExportFormat::kProm;
  return ExportFormat::kTable;  // "table" and any other truthy value
}

void dump(const Registry& r, ExportFormat f, std::ostream& os) {
  switch (f) {
    case ExportFormat::kNone: break;
    case ExportFormat::kJson: to_json(r, os); break;
    case ExportFormat::kProm: to_prometheus(r, os); break;
    case ExportFormat::kTable: os << to_table(r); break;
  }
}

bool dump_env(std::ostream& os) {
  const ExportFormat f = env_format();
  if (f == ExportFormat::kNone) return false;
  dump(Registry::global(), f, os);
  return true;
}

}  // namespace parfw::telemetry
