// Convenience driver: spin up the in-process runtime, distribute a
// matrix, run a ParallelFw variant, gather the result, and report traffic
// statistics. This is the entry point the tests, benches and the
// distributed example use.
//
// Supervision (DESIGN.md "Resilience"): any RankFailure — an injected
// crash, an exhausted retry budget, or a peer observed dying — tears the
// whole world down (Runtime::run joins all threads, then rethrows). The
// loop here restarts the run: from the last committed checkpoint cut when
// the options carry a CheckpointStore, from scratch otherwise. Injected
// one-shot crashes are disarmed on restart; message faults stay active
// (the environment is still flaky after a restart). Under the idempotent
// min-plus ⊕, the replayed suffix reproduces the uninterrupted run's
// result bit-identically — the crash-restart property tests pin it down.
#pragma once

#include <cstdint>
#include <optional>

#include "core/apsp.hpp"
#include "dist/checkpoint.hpp"
#include "dist/parallel_fw.hpp"
#include "graph/graph.hpp"
#include "mpisim/runtime.hpp"
#include "util/timer.hpp"

namespace parfw::dist {

template <typename T>
struct DistRunResult {
  Matrix<T> dist;             ///< gathered closed matrix (at the caller)
  Matrix<std::int64_t> pred;  ///< gathered predecessors (paths runs only)
  /// Whole-run communication statistics: every supervised attempt merged,
  /// crashed ones included, so checkpoint/retry work is never hidden.
  mpi::TrafficStats traffic;
  double seconds = 0.0;       ///< wall time of the parallel section
  int restarts = 0;           ///< supervision-loop world restarts
};

namespace detail {

/// Supervised execution shared by every driver entry point. `fill` is
/// called (with the rank's layout and world) to produce the INITIAL local
/// tiles of a fresh run; restarts load the committed checkpoint instead.
/// With track_paths the payload-generic interpreter carries a predecessor
/// matrix through the SAME supervision loop: fresh attempts initialise it
/// from the filled distances, restarts restore it from the committed
/// blob's pred payload — so crash + resume reproduces the uninterrupted
/// paths run bit-identically, pred matrix included.
template <typename S, typename Fill>
DistRunResult<typename S::value_type> supervised_run(
    std::size_t n, const Fill& fill, const GridSpec& grid, int ranks_per_node,
    const DistFwOptions& opt, bool track_paths = false) {
  using T = typename S::value_type;
  DistRunResult<T> result;

  // run_opt is this attempt's view of the options: the interpreter reads
  // the crash coordinate from it, so restarts disarm it here (and in the
  // runtime's copy below).
  DistFwOptions run_opt = opt;

  mpi::RuntimeOptions ropt;
  ropt.node_model = grid.node_model(ranks_per_node);
  ropt.trace = opt.trace;
  ropt.faults = opt.faults;
  ropt.max_retries = opt.resilience.max_retries;
  ropt.send_timeout = opt.resilience.send_timeout;
  mpi::TrafficStats attempt;
  ropt.stats_out = &attempt;  // survives the throw on a crashed attempt

  CheckpointStore* store = opt.resilience.store;
  Timer timer;
  for (;;) {
    // Restart from a checkpoint only if a cut was committed by a PREVIOUS
    // attempt of this run (the caller is responsible for handing a fresh
    // store per logical run).
    std::uint64_t resume_k = 0;
    bool resume = false;
    if (result.restarts > 0 && store != nullptr) {
      if (auto commit = read_commit(*store)) {
        PARFW_CHECK_MSG(commit->n == n &&
                            commit->block_size == opt.block_size &&
                            commit->world_size ==
                                static_cast<std::uint32_t>(grid.size()),
                        "committed checkpoint does not match this run");
        resume = true;
        resume_k = commit->k0;
      }
    }
    try {
      mpi::Runtime::run(
          grid.size(),
          [&](mpi::Comm& world) {
            BlockCyclicMatrix<T> local(n, opt.block_size, grid,
                                       grid.coord_of(world.rank()));
            std::optional<BlockCyclicMatrix<std::int64_t>> plocal;
            if (track_paths)
              plocal.emplace(n, opt.block_size, grid,
                             grid.coord_of(world.rank()));
            BlockCyclicMatrix<std::int64_t>* pp =
                track_paths ? &*plocal : nullptr;
            if (resume) {
              load_rank_checkpoint<T>(*store, resume_k, local, pp);
            } else {
              fill(local, world);
              if (track_paths) init_predecessors_dist<S>(local, *plocal);
            }
            world.barrier();
            parallel_fw_resume<S>(world, local, pp,
                                  static_cast<std::size_t>(resume_k), run_opt);
            world.barrier();
            if (opt.publish_store != nullptr) {
              // Publish the finished run for the serving tier: final tiles
              // under k0 = nb (all pivot rounds done), through the same
              // commit discipline as a checkpoint cut.
              SchedulePosition pos;
              pos.variant = opt.variant;
              pos.k0 = local.num_blocks();
              (void)commit_cut<T>(world, opt.publish_store, local, pos, pp);
            }
            Matrix<T> gathered = local.gather(world);
            Matrix<std::int64_t> pgathered;
            if (track_paths) pgathered = plocal->gather(world);
            if (world.rank() == 0) {
              result.dist = std::move(gathered);
              if (track_paths) result.pred = std::move(pgathered);
            }
          },
          ropt);
      result.traffic.merge(attempt);
      break;
    } catch (const mpi::RankFailure&) {
      result.traffic.merge(attempt);  // crashed attempt's work stays visible
      attempt = {};
      PARFW_CHECK_MSG(result.restarts < opt.resilience.max_restarts,
                      "giving up after " << result.restarts
                                         << " world restarts");
      ++result.restarts;
      // Injected crashes are one-shot: disarm both the interpreter's and
      // the runtime's copy; message faults stay armed.
      run_opt.faults.crash_rank = -1;
      run_opt.faults.crash_at_op = -1;
      ropt.faults.crash_rank = -1;
      ropt.faults.crash_at_op = -1;
    }
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace detail

/// Run one distributed APSP end to end on a deterministically-generated
/// matrix. `ranks_per_node` controls the NIC accounting (paper §3.4.1);
/// use grid.qr()*grid.qc() for placements built with GridSpec::tiled.
template <typename S>
DistRunResult<typename S::value_type> run_parallel_fw(
    std::size_t n, const DenseEntryGen<typename S::value_type>& gen,
    const GridSpec& grid, int ranks_per_node, const DistFwOptions& opt = {},
    bool track_paths = false) {
  using T = typename S::value_type;
  return detail::supervised_run<S>(
      n,
      [&gen](BlockCyclicMatrix<T>& local, mpi::Comm&) { local.fill(gen); },
      grid, ranks_per_node, opt, track_paths);
}

/// Graph front door: solve APSP for `g` distributed, returning the same
/// ApspResult the core apsp() returns — this is what parfw::solve
/// (dist/solve.hpp) dispatches to for ApspAlgorithm::kDistributed.
/// Requires g.num_vertices() % opt.block_size == 0 (block-cyclic layout).
/// track_paths runs the SAME payload-generic interpreter under the SAME
/// supervision loop — every variant, placement, checkpoint cut and crash
/// injection applies to paths runs exactly as to value runs.
template <typename S>
ApspResult<typename S::value_type> run_parallel_fw(
    const Graph& g, const GridSpec& grid, int ranks_per_node,
    const DistFwOptions& opt = {}, bool track_paths = false) {
  using T = typename S::value_type;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  Matrix<T> full = g.distance_matrix<S>();
  ApspResult<T> out;

  auto res = detail::supervised_run<S>(
      n,
      [&full](BlockCyclicMatrix<T>& local, mpi::Comm&) {
        local.load(full.view());
      },
      grid, ranks_per_node, opt, track_paths);
  out.dist = std::move(res.dist);
  if (track_paths) out.pred = std::move(res.pred);
  return out;
}

}  // namespace parfw::dist
