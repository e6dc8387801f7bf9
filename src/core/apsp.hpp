// High-level APSP front door.
//
// apsp() picks an execution strategy (sequential FW, blocked FW, blocked +
// thread parallel) over a chosen semiring and returns the closed distance
// matrix, optionally with predecessors for path queries: every strategy
// runs its values-only solve, then the witness pass (core/witness.hpp).
// The distributed strategy (kDistributed) is declared here but dispatched
// by parfw::solve in dist/solve.hpp — the ONE front door covering every
// strategy — so that core stays free of the runtime/grid machinery;
// calling apsp() directly with kDistributed is an error pointing there.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/blocked_fw.hpp"
#include "core/checkpoint_store.hpp"
#include "core/floyd_warshall.hpp"
#include "core/query.hpp"
#include "core/solve_options.hpp"
#include "core/witness.hpp"
#include "graph/graph.hpp"
#include "sched/variant.hpp"

namespace parfw {

namespace telemetry {
class Registry;  // fwd: core carries the pointer, never the dependency
}

namespace sched {
class TraceSink;          // fwd: sched/trace.hpp
class ScheduleObserver;   // fwd: sched/ir.hpp
}

enum class ApspAlgorithm {
  kSequential,       ///< Algorithm 1
  kBlocked,          ///< Algorithm 2, single thread
  kBlockedParallel,  ///< Algorithm 2, tiles over the global thread pool
  kDistributed,      ///< ParallelFw over mpisim (dispatched by parfw::solve)
};

/// Distributed execution strategy (ApspAlgorithm::kDistributed). The grid
/// is described by shape here and materialised as a dist::GridSpec by
/// solve(), so this header needs no dist dependency.
struct DistStrategy {
  /// kAuto asks solve() to pick the whole schedule configuration —
  /// variant, placement, block size, offload depth — through the causal
  /// autotuner (src/tune/): grid_rows·grid_cols then only fixes the RANK
  /// COUNT and ranks_per_node the node size; the winner (searched, or
  /// loaded from the PARFW_TUNE_CACHE manifest) overrides the shape knobs
  /// below and SolveCommon::block_size before the run.
  sched::Variant variant = sched::Variant::kAsync;
  int grid_rows = 2, grid_cols = 2;  ///< process grid P_r x P_c
  /// NIC accounting (paper §3.4.1): ranks sharing a node.
  int ranks_per_node = 1;
  /// Paper Figure 1 +Reordering placement: node grid of
  /// (grid_rows/node_rows) x (grid_cols/node_cols) tiles. When set,
  /// ranks_per_node is implied by the tile size.
  bool tiled = false;
  int node_rows = 1, node_cols = 1;
  /// Checkpoint/restart + runtime reliability envelope.
  ResilienceOptions resilience{};
  /// kOffload ooGSrGemm X-buffer depth s ∈ 1..3 (offload::OogConfig::
  /// num_streams); ignored by the other variants. kAuto sets it from the
  /// winning candidate.
  std::size_t oog_streams = 3;
  /// kAuto objective: makespan + tune_stall_weight · critical-path stall
  /// seconds (tune::TuneOptions::stall_weight; 0 = pure makespan).
  double tune_stall_weight = 1.0;
  /// When set, solve() threads this registry into the distributed
  /// interpreter (fw.phase.* series), the witness pass records its
  /// paths.witness.* series into it, and kAuto publishes the tune.*
  /// series — predicted vs achieved seconds included — into it.
  telemetry::Registry* metrics = nullptr;
  /// When set, solve() threads this sink into the distributed interpreter
  /// AND the mpisim runtime: every executed schedule op, message delivery,
  /// retransmission and offload pipeline stage is recorded into it. This
  /// is how the flight recorder (sched::RingTraceSink) and the live run
  /// monitor (monitor::RunMonitor) observe a front-door run. Must be
  /// thread-safe. Not owned.
  sched::TraceSink* trace = nullptr;
  /// When set, every rank thread hands over the materialised Schedule
  /// before executing (see dist::DistFwOptions::schedule_observer) — with
  /// --variant auto this is the RESOLVED winner's schedule, so a monitor
  /// wired here tracks whatever the tuner actually picked. Not owned.
  sched::ScheduleObserver* schedule_observer = nullptr;
  /// When set, the finished run is published into this store as a served
  /// tile manifest (per-rank final tiles + commit, k0 = nb) that the
  /// serving tier (serve::PathService) opens directly. Not owned.
  CheckpointStore* publish_store = nullptr;
};

struct ApspOptions : SolveCommon {
  ApspAlgorithm algorithm = ApspAlgorithm::kBlockedParallel;
  bool track_paths = false;
  /// Refuse to produce results containing a negative cycle (min-plus only);
  /// throws check_error instead.
  bool reject_negative_cycles = false;
  /// Used iff algorithm == kDistributed.
  DistStrategy dist{};
};

/// Result of an APSP solve. dist(i,j) is the closed semiring distance;
/// pred is present iff track_paths was set, and holds the witness
/// predecessors of dist (core/witness.hpp), whatever the engine.
template <typename T>
struct ApspResult {
  Matrix<T> dist;
  std::optional<Matrix<std::int64_t>> pred;

  /// Answer one point-to-point query. The result always carries the
  /// distance; status distinguishes found / unreachable / paths-not-
  /// tracked, and the path is reconstructed only when `want_path` and
  /// status == kFound. This is the in-memory oracle the serving tier
  /// (serve::PathService) must match bit for bit.
  QueryResult<T> query(std::int64_t src, std::int64_t dst,
                       bool want_path = true) const;

  /// Answer a batch through the shared query API (core/query.hpp).
  std::vector<QueryResult<T>> answer(const QueryBatch& batch) const;
};

/// Solve APSP on a graph over semiring S (default: the paper's min-plus).
template <typename S>
ApspResult<typename S::value_type> apsp(const Graph& g,
                                        const ApspOptions& opt = {}) {
  using T = typename S::value_type;
  PARFW_CHECK_MSG(opt.algorithm != ApspAlgorithm::kDistributed,
                  "kDistributed dispatches through parfw::solve "
                  "(dist/solve.hpp), which owns the runtime");
  ApspResult<T> result;
  result.dist = g.distance_matrix<S>();
  auto d = result.dist.view();
  Matrix<T> w;  // the input matrix, kept for the witness pass
  if (opt.track_paths) w = result.dist.clone();

  BlockedFwOptions bopt;
  static_cast<SolveCommon&>(bopt) = opt;  // shared knobs, verbatim
  if (opt.algorithm == ApspAlgorithm::kBlockedParallel)
    bopt.pool = &ThreadPool::global();
  if (opt.algorithm == ApspAlgorithm::kSequential)
    floyd_warshall<S>(d);
  else
    blocked_floyd_warshall<S>(d, bopt);

  if (opt.reject_negative_cycles) {
    PARFW_CHECK_MSG(!has_negative_cycle<S>(d),
                    "input graph contains a negative cycle");
  }
  if (opt.track_paths) {
    result.pred.emplace(d.rows(), d.cols());
    witness_predecessors<S>(w.view(), d, result.pred->view(), bopt.pool,
                            witness_registry(nullptr));
  }
  return result;
}

template <typename T>
QueryResult<T> ApspResult<T>::query(std::int64_t src, std::int64_t dst,
                                    bool want_path) const {
  const auto n = static_cast<std::int64_t>(dist.view().rows());
  PARFW_CHECK_MSG(src >= 0 && src < n && dst >= 0 && dst < n,
                  "query (" << src << ", " << dst << ") out of range for n="
                            << n);
  QueryResult<T> r;
  r.distance = dist.view()(static_cast<std::size_t>(src),
                           static_cast<std::size_t>(dst));
  if (!pred.has_value()) {
    r.status = PathStatus::kNotTracked;
    return r;
  }
  auto pv = pred->view();
  if (src != dst && pv(static_cast<std::size_t>(src),
                       static_cast<std::size_t>(dst)) < 0) {
    r.status = PathStatus::kUnreachable;
    return r;
  }
  r.status = PathStatus::kFound;
  if (want_path) r.path = reconstruct_path(pv, src, dst);
  return r;
}

template <typename T>
std::vector<QueryResult<T>> ApspResult<T>::answer(
    const QueryBatch& batch) const {
  std::vector<QueryResult<T>> out;
  out.reserve(batch.pairs.size());
  for (const PathQuery& q : batch.pairs)
    out.push_back(query(q.src, q.dst, batch.want_paths));
  return out;
}

}  // namespace parfw
