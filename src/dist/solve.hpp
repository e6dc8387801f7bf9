// parfw::solve — the ONE front door over every execution strategy.
//
// core/apsp.hpp's apsp() covers the single-node strategies but cannot see
// the distributed engine (core must not depend on the runtime); this
// header closes the loop: solve() dispatches kDistributed to the dist
// driver (materialising the GridSpec from ApspOptions::dist and threading
// the shared SolveCommon + ResilienceOptions through) and everything else
// to apsp(). Examples/tools/tests call this and pick a strategy with an
// enum instead of choosing between two entry points with different shapes.
//
// DistStrategy::variant == kAuto additionally closes the CAUSAL loop:
// before running, solve() resolves the whole schedule configuration —
// variant, placement, block size, offload depth — through the autotuner
// (src/tune/), or through the PARFW_TUNE_CACHE manifest when that env var
// names a file holding a winner for this exact workload. The resolved
// schedule replaces the DistStrategy shape knobs and block_size; the data
// path below it is untouched, so an auto run is bit-identical to an
// explicit run of the winning configuration.
#pragma once

#include <cstdlib>
#include <fstream>

#include "core/apsp.hpp"
#include "dist/driver.hpp"
#include "telemetry/metrics.hpp"
#include "tune/manifest.hpp"
#include "tune/tune.hpp"
#include "util/timer.hpp"

namespace parfw {

/// Materialise the process grid described by a DistStrategy.
inline dist::GridSpec grid_of(const DistStrategy& ds) {
  if (!ds.tiled) return dist::GridSpec::row_major(ds.grid_rows, ds.grid_cols);
  PARFW_CHECK_MSG(ds.node_rows > 0 && ds.node_cols > 0 &&
                      ds.grid_rows % ds.node_rows == 0 &&
                      ds.grid_cols % ds.node_cols == 0,
                  "tiled placement: node grid must divide the process grid");
  return dist::GridSpec::tiled(ds.node_rows, ds.node_cols,
                               ds.grid_rows / ds.node_rows,
                               ds.grid_cols / ds.node_cols);
}

/// The tuner workload a kAuto DistStrategy describes for an n-vertex
/// solve: the grid shape only pins the rank count, the placement itself
/// is part of the search space.
inline tune::Workload auto_workload(const DistStrategy& ds, std::size_t n,
                                    std::size_t word_bytes) {
  tune::Workload w;
  w.n = n;
  w.ranks = ds.grid_rows * ds.grid_cols;
  w.ranks_per_node =
      ds.tiled ? (ds.grid_rows / ds.node_rows) * (ds.grid_cols / ds.node_cols)
               : ds.ranks_per_node;
  w.word_bytes = word_bytes;
  return w;
}

/// Resolve a kAuto strategy to the concrete winning schedule: consult the
/// PARFW_TUNE_CACHE manifest first (exact workload + stall_weight key),
/// otherwise run the tuner — and, when the env var is set, persist the
/// fresh winner back so the next run is a cache hit. Publishes the tune.*
/// series into `metrics` when set.
inline tune::ManifestEntry resolve_auto(const DistStrategy& ds, std::size_t n,
                                        std::size_t word_bytes) {
  const tune::Workload w = auto_workload(ds, n, word_bytes);
  const char* cache_path = std::getenv("PARFW_TUNE_CACHE");

  tune::Manifest manifest;
  bool have_file = false;
  if (cache_path != nullptr && *cache_path != '\0') {
    if (std::ifstream probe(cache_path); probe.good()) {
      std::string err;
      // A present-but-malformed cache is a hard error: silently
      // re-tuning would leave the corrupt file masking every future run.
      PARFW_CHECK_MSG(tune::read_manifest_file(cache_path, &manifest, &err),
                      "PARFW_TUNE_CACHE: " << err);
      have_file = true;
    }
  }

  if (const tune::ManifestEntry* hit =
          manifest.find(w, ds.tune_stall_weight)) {
    if (ds.metrics != nullptr) {
      ds.metrics->counter("tune.manifest_hits").add(1);
      ds.metrics->gauge("tune.predicted_makespan")
          .set(hit->predicted_makespan);
      ds.metrics->gauge("tune.default_makespan").set(hit->default_makespan);
      ds.metrics->gauge("tune.stall_share", "schedule=default")
          .set(hit->default_stall_share);
      ds.metrics->gauge("tune.stall_share", "schedule=tuned")
          .set(hit->predicted_stall_share);
    }
    return *hit;
  }

  tune::TuneOptions topt;
  topt.stall_weight = ds.tune_stall_weight;
  topt.metrics = ds.metrics;
  tune::Tuner tuner(w, topt);
  const tune::TuneReport report = tuner.run();
  const tune::ManifestEntry entry =
      tune::to_entry(report, ds.tune_stall_weight);

  if (cache_path != nullptr && *cache_path != '\0') {
    manifest.put(entry);
    std::string err;
    PARFW_CHECK_MSG(tune::write_manifest_file(cache_path, manifest, &err),
                    "PARFW_TUNE_CACHE: " << err);
    (void)have_file;
  }
  return entry;
}

/// The concrete DistStrategy a resolved winner prescribes (metrics,
/// resilience and the objective weight carry over verbatim).
inline DistStrategy apply_winner(const DistStrategy& ds,
                                 const tune::Candidate& winner) {
  DistStrategy out = ds;
  out.variant = winner.variant;
  out.grid_rows = winner.placement.pr;
  out.grid_cols = winner.placement.pc;
  out.tiled = winner.placement.tiled;
  out.node_rows = winner.placement.tiled ? winner.placement.kr : 1;
  out.node_cols = winner.placement.tiled ? winner.placement.kc : 1;
  return out;
}

/// Solve APSP on a graph over semiring S with any strategy, including the
/// distributed ones. Back-compat: apsp() and dist::run_parallel_fw keep
/// working; this is sugar gluing them behind one option struct.
template <typename S>
ApspResult<typename S::value_type> solve(const Graph& g,
                                         const ApspOptions& opt = {}) {
  if (opt.algorithm != ApspAlgorithm::kDistributed) return apsp<S>(g, opt);

  using T = typename S::value_type;
  ApspOptions resolved = opt;
  if (opt.dist.variant == sched::Variant::kAuto) {
    // Paths runs execute the values schedule, so they tune against it.
    const tune::ManifestEntry entry = resolve_auto(
        opt.dist, static_cast<std::size_t>(g.num_vertices()), sizeof(T));
    resolved.dist = apply_winner(opt.dist, entry.winner);
    resolved.block_size = entry.winner.block;
    resolved.dist.oog_streams = static_cast<std::size_t>(entry.winner.streams);
  }

  const DistStrategy& ds = resolved.dist;
  const dist::GridSpec grid = grid_of(ds);
  const int rpn = ds.tiled ? grid.qr() * grid.qc() : ds.ranks_per_node;

  dist::DistFwOptions dopt;
  static_cast<SolveCommon&>(dopt) = resolved;  // block_size / diag, verbatim
  dopt.variant = ds.variant;
  dopt.resilience = ds.resilience;
  dopt.oog.num_streams = ds.oog_streams;
  dopt.metrics = ds.metrics;
  dopt.trace = ds.trace;
  dopt.schedule_observer = ds.schedule_observer;
  dopt.publish_store = ds.publish_store;

  // Environment straggler injection (the live monitor's reference fault,
  // check.sh --monitor): PARFW_SLOW_RANK=R [PARFW_SLOW_OP_MS=M] makes
  // rank R sleep M ms (default 5) inside every schedule op it executes.
  // Timing-only — results stay bit-identical.
  if (const char* sr = std::getenv("PARFW_SLOW_RANK");
      sr != nullptr && *sr != '\0') {
    dopt.faults.slow_rank = std::atoi(sr);
    const char* ms = std::getenv("PARFW_SLOW_OP_MS");
    dopt.faults.slow_op_seconds =
        (ms != nullptr && *ms != '\0' ? std::atof(ms) : 5.0) * 1e-3;
  }

  Timer wall;
  ApspResult<T> result = dist::run_parallel_fw<S>(
      g, grid, rpn, dopt, resolved.track_paths);
  if (ds.metrics != nullptr && opt.dist.variant == sched::Variant::kAuto) {
    // Predicted is DES-virtual Summit seconds, achieved is mpisim wall
    // seconds on this host — the pair reports the loop closing, the DES
    // band test (perf_test) owns the accuracy claim.
    ds.metrics->gauge("tune.achieved_seconds").set(wall.seconds());
  }
  if (resolved.reject_negative_cycles) {
    PARFW_CHECK_MSG(!has_negative_cycle<S>(result.dist.view()),
                    "input graph contains a negative cycle");
  }
  return result;
}

}  // namespace parfw
