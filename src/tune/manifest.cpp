#include "tune/manifest.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "causal/trace_io.hpp"

namespace parfw::tune {

namespace {

bool same_key(const ManifestEntry& e, const Workload& w, double sw) {
  return e.workload == w && e.stall_weight == sw;
}

void append_number(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *out += buf;
}

bool get_number(const causal::JsonValue& obj, const char* key, double* out,
                std::string* error) {
  const causal::JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != causal::JsonValue::Type::kNumber) {
    *error = std::string("manifest entry missing numeric field \"") + key +
             "\"";
    return false;
  }
  *out = v->number;
  return true;
}

/// An integral field must be finite, whole and in [1, 2^digits of T):
/// casting anything else to T is undefined, or is not a count.
template <typename T>
bool get_count(const causal::JsonValue& obj, const char* key, T* out,
               std::string* error) {
  double v = 0;
  if (!get_number(obj, key, &v, error)) return false;
  if (!(v >= 1.0 && v < std::ldexp(1.0, std::numeric_limits<T>::digits) &&
        v == std::floor(v))) {
    *error = std::string("manifest entry field \"") + key +
             "\" must be a positive integer in range";
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

bool get_bool(const causal::JsonValue& obj, const char* key, bool* out,
              std::string* error) {
  const causal::JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != causal::JsonValue::Type::kBool) {
    *error =
        std::string("manifest entry missing boolean field \"") + key + "\"";
    return false;
  }
  *out = v->boolean;
  return true;
}

}  // namespace

const ManifestEntry* Manifest::find(const Workload& w,
                                    double stall_weight) const {
  for (const ManifestEntry& e : entries)
    if (same_key(e, w, stall_weight)) return &e;
  return nullptr;
}

void Manifest::put(const ManifestEntry& e) {
  for (ManifestEntry& old : entries)
    if (same_key(old, e.workload, e.stall_weight)) {
      old = e;
      return;
    }
  entries.push_back(e);
}

ManifestEntry to_entry(const TuneReport& r, double stall_weight) {
  ManifestEntry e;
  e.workload = r.workload;
  e.stall_weight = stall_weight;
  e.winner = r.winner.canonical();
  e.predicted_makespan = r.winner_eval.makespan;
  e.predicted_stall_share = r.winner_eval.stall_share;
  e.default_makespan = r.seed_eval.makespan;
  e.default_stall_share = r.seed_eval.stall_share;
  return e;
}

std::string write_manifest(const Manifest& m) {
  std::string out = "{\n  \"version\": 1,\n  \"entries\": [";
  bool first = true;
  for (const ManifestEntry& e : m.entries) {
    out += first ? "\n" : ",\n";
    first = false;
    char head[512];
    std::snprintf(head, sizeof head,
                  "    { \"n\": %zu, \"ranks\": %d, \"ranks_per_node\": %d, "
                  "\"word_bytes\": %zu,\n"
                  "      \"stall_weight\": ",
                  e.workload.n, e.workload.ranks, e.workload.ranks_per_node,
                  e.workload.word_bytes);
    out += head;
    append_number(&out, e.stall_weight);
    char body[512];
    const Candidate c = e.winner.canonical();
    std::snprintf(body, sizeof body,
                  ",\n      \"variant\": \"%s\", \"tiled\": %s, "
                  "\"pr\": %d, \"pc\": %d, \"kr\": %d, \"kc\": %d, "
                  "\"block\": %zu, \"streams\": %d,\n"
                  "      \"predicted_makespan\": ",
                  sched::variant_name(c.variant),
                  c.placement.tiled ? "true" : "false", c.placement.pr,
                  c.placement.pc, c.placement.kr, c.placement.kc, c.block,
                  c.streams);
    out += body;
    append_number(&out, e.predicted_makespan);
    out += ", \"predicted_stall_share\": ";
    append_number(&out, e.predicted_stall_share);
    out += ",\n      \"default_makespan\": ";
    append_number(&out, e.default_makespan);
    out += ", \"default_stall_share\": ";
    append_number(&out, e.default_stall_share);
    out += " }";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool read_manifest(const std::string& text, Manifest* out,
                   std::string* error) {
  out->entries.clear();
  causal::JsonValue doc;
  if (!causal::parse_json(text, &doc, error)) return false;
  if (doc.type != causal::JsonValue::Type::kObject) {
    *error = "manifest root must be an object";
    return false;
  }
  const causal::JsonValue* ver = doc.find("version");
  if (ver == nullptr || ver->type != causal::JsonValue::Type::kNumber ||
      ver->number != 1.0) {
    *error = "manifest version missing or unsupported (want 1)";
    return false;
  }
  const causal::JsonValue* entries = doc.find("entries");
  if (entries == nullptr ||
      entries->type != causal::JsonValue::Type::kArray) {
    *error = "manifest \"entries\" must be an array";
    return false;
  }
  for (const causal::JsonValue& row : entries->arr) {
    if (row.type != causal::JsonValue::Type::kObject) {
      *error = "manifest entry must be an object";
      return false;
    }
    ManifestEntry e;
    Candidate& w = e.winner;
    if (!get_count(row, "n", &e.workload.n, error) ||
        !get_count(row, "ranks", &e.workload.ranks, error) ||
        !get_count(row, "ranks_per_node", &e.workload.ranks_per_node,
                   error) ||
        !get_count(row, "word_bytes", &e.workload.word_bytes, error) ||
        !get_number(row, "stall_weight", &e.stall_weight, error) ||
        !get_count(row, "pr", &w.placement.pr, error) ||
        !get_count(row, "pc", &w.placement.pc, error) ||
        !get_count(row, "kr", &w.placement.kr, error) ||
        !get_count(row, "kc", &w.placement.kc, error) ||
        !get_count(row, "block", &w.block, error) ||
        !get_count(row, "streams", &w.streams, error) ||
        !get_number(row, "predicted_makespan", &e.predicted_makespan,
                    error) ||
        !get_number(row, "predicted_stall_share", &e.predicted_stall_share,
                    error) ||
        !get_number(row, "default_makespan", &e.default_makespan, error) ||
        !get_number(row, "default_stall_share", &e.default_stall_share,
                    error))
      return false;
    if (!get_bool(row, "tiled", &w.placement.tiled, error))
      return false;
    // Older manifests keyed paths runs apart with "track_paths". A paths
    // solve now runs the values schedule, so such a row is a values row;
    // where the file also holds a values row for the key, that one wins.
    bool paths_row = false;
    if (const causal::JsonValue* tp = row.find("track_paths");
        tp != nullptr) {
      if (tp->type != causal::JsonValue::Type::kBool) {
        *error = "manifest entry \"track_paths\" must be a boolean";
        return false;
      }
      paths_row = tp->boolean;
    }
    const causal::JsonValue* var = row.find("variant");
    if (var == nullptr || var->type != causal::JsonValue::Type::kString ||
        !sched::variant_from_name(var->str, &w.variant,
                                  /*allow_auto=*/false)) {
      *error = "manifest entry has a missing or unknown \"variant\"";
      return false;
    }
    w = w.canonical();
    if (paths_row && out->find(e.workload, e.stall_weight) != nullptr)
      continue;
    out->put(e);
  }
  return true;
}

bool read_manifest_file(const std::string& path, Manifest* out,
                        std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open manifest file: " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!read_manifest(ss.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool write_manifest_file(const std::string& path, const Manifest& m,
                         std::string* error) {
  std::ofstream of(path, std::ios::binary | std::ios::trunc);
  if (!of) {
    *error = "cannot open manifest file for writing: " + path;
    return false;
  }
  of << write_manifest(m);
  of.flush();
  if (!of) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace parfw::tune
