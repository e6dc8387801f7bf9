// trace_io — load a Chrome-trace JSON document (the format
// sched::write_chrome_trace emits) back into sched::TraceEvent records, so
// the causal analysis layer can consume traces from disk as well as
// straight from an in-process CollectTraceSink.
//
// The loader is a strict, self-contained JSON-subset parser (no external
// dependencies): a syntax error, truncated document, or a trace event
// missing its required fields produces a clear diagnostic with the byte
// offset (or event index) of the failure instead of a partial result —
// tools/trace_dump and tools/trace_analyze turn that into a nonzero exit.
//
// Flow events (ph "s"/"f") and metadata rows (ph "M") are presentation
// artifacts and are skipped; duration ("X") and instant ("i") rows map
// back to TraceEvents, with the causal annotations (ek/peer/tag/seq/ctx/
// att) recovered from args. Timestamps are converted back to seconds
// (relative to the document's own epoch — analysis only uses deltas).
#pragma once

#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "sched/trace.hpp"

namespace parfw::causal {

/// Outcome of a load. When !ok, `error` describes the failure (with a
/// byte offset for syntax errors or an event index for semantic ones)
/// and `events` is empty. Event name pointers refer to strings owned by
/// `names` — keep the LoadResult alive as long as the events.
struct LoadResult {
  bool ok = false;
  std::string error;
  std::vector<sched::TraceEvent> events;
  std::deque<std::string> names;  ///< interned name storage (stable addrs)
};

/// Parse a Chrome-trace JSON document from a string.
LoadResult load_chrome_trace(const std::string& text);

/// Read and parse `path`. Unreadable files report through `error` too.
LoadResult load_chrome_trace_file(const std::string& path);

/// Minimal JSON value — exposed for small auxiliary documents (the blame
/// band files checked in for CI gating reuse this parser).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  /// Object member lookup (nullptr when absent or not an object).
  const JsonValue* find(const std::string& key) const;
};

/// Parse an arbitrary JSON document. On failure returns false and sets
/// `error` to "message at byte N".
bool parse_json(const std::string& text, JsonValue* out, std::string* error);

}  // namespace parfw::causal
