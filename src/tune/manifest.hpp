// manifest — persisted tuning winners (the PARFW_TUNE_CACHE format).
//
// A manifest is a small JSON document mapping workloads to the schedule
// the tuner picked for them, so `--variant auto` runs can skip the search
// entirely: parfw::solve (and tools/sched_tune --manifest) look the
// workload up by exact key — (n, ranks, ranks_per_node, word_bytes,
// stall_weight) — and execute the stored winner when present. Rows written
// while paths runs had their own schedule carry "track_paths"; they still
// load, as values rows, behind any values row with the same key. The stored
// predicted numbers ride along for the tune.* telemetry and for the
// predicted-vs-achieved report; they are advisory, never used to alter
// the schedule.
//
// Format (version 1):
//   { "version": 1,
//     "entries": [ { "n": 49152, "ranks": 48, "ranks_per_node": 12,
//                    "word_bytes": 4, "stall_weight": 1.0,
//                    "variant": "pipelined",
//                    "tiled": true, "pr": 4, "pc": 6, "kr": 2, "kc": 2,
//                    "block": 256, "streams": 3,
//                    "predicted_makespan": ...,
//                    "predicted_stall_share": ...,
//                    "default_makespan": ...,
//                    "default_stall_share": ... } ] }
//
// Reads go through the strict causal::parse_json subset parser; a
// malformed manifest is a hard error (clear diagnostic), never a silent
// fall-through to re-tuning with a corrupt cache still on disk.
#pragma once

#include <string>
#include <vector>

#include "tune/tune.hpp"

namespace parfw::tune {

/// One manifest row: the lookup key (workload + stall_weight) and the
/// stored winner with its predicted/default numbers.
struct ManifestEntry {
  Workload workload{};
  double stall_weight = 1.0;
  Candidate winner{};
  double predicted_makespan = 0.0;
  double predicted_stall_share = 0.0;
  double default_makespan = 0.0;
  double default_stall_share = 0.0;
};

struct Manifest {
  std::vector<ManifestEntry> entries;

  /// Exact-key lookup (nullptr when absent). Matching is on the full
  /// workload AND the objective's stall_weight — a winner tuned for one
  /// objective must not answer for another.
  const ManifestEntry* find(const Workload& w, double stall_weight) const;

  /// Insert or overwrite the row with this entry's key.
  void put(const ManifestEntry& e);
};

/// Build the row a TuneReport would persist.
ManifestEntry to_entry(const TuneReport& r, double stall_weight);

/// Serialise to the version-1 JSON document.
std::string write_manifest(const Manifest& m);

/// Parse a manifest document / read one from disk. On failure returns
/// false and sets `error` (parse diagnostics include what was wrong and
/// where; unknown versions are rejected).
bool read_manifest(const std::string& text, Manifest* out, std::string* error);
bool read_manifest_file(const std::string& path, Manifest* out,
                        std::string* error);
bool write_manifest_file(const std::string& path, const Manifest& m,
                         std::string* error);

}  // namespace parfw::tune
