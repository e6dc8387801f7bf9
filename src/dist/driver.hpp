// Convenience driver: spin up the in-process runtime, distribute a
// matrix, run a ParallelFw variant, gather the result, and report traffic
// statistics. This is the entry point the tests, benches and the
// distributed example use. A paths run is the values run plus the witness
// pass (core/witness.hpp) over the gathered matrix and the input; a
// publish store then receives both, sharded over the run's own grid.
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

#include "core/apsp.hpp"
#include "core/witness.hpp"
#include "dist/checkpoint.hpp"
#include "dist/parallel_fw.hpp"
#include "graph/graph.hpp"
#include "mpisim/runtime.hpp"
#include "util/timer.hpp"

namespace parfw::dist {

template <typename T>
struct DistRunResult {
  Matrix<T> dist;             ///< gathered closed matrix (at the caller)
  Matrix<std::int64_t> pred;  ///< witness predecessors (paths runs only)
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
/// Returns the gathered closed matrix.
template <typename S, typename Fill>
DistRunResult<typename S::value_type> supervised_run(
    std::size_t n, const Fill& fill, const GridSpec& grid, int ranks_per_node,
    const DistFwOptions& opt) {
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
            if (resume)
              load_rank_checkpoint<T>(*store, resume_k, local);
            else
              fill(local, world);
            world.barrier();
            parallel_fw_resume<S>(world, local,
                                  static_cast<std::size_t>(resume_k), run_opt);
            world.barrier();
            Matrix<T> gathered = local.gather(world);
            if (world.rank() == 0) result.dist = std::move(gathered);
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

/// What follows the gather: on paths runs the witness pass over the
/// closed matrix and the input `w` on the global pool (its series go to
/// opt.metrics, or to the global registry while telemetry is enabled),
/// then, with a publish store, the published manifest.
template <typename S>
void finish_run(DistRunResult<typename S::value_type>& res,
                MatrixView<const typename S::value_type> w,
                const GridSpec& grid, const DistFwOptions& opt,
                bool track_paths) {
  ThreadPool& pool = ThreadPool::global();
  if (track_paths) {
    res.pred = Matrix<std::int64_t>(res.dist.rows(), res.dist.cols());
    witness_predecessors<S>(w, res.dist.view(), res.pred.view(), &pool,
                            witness_registry(opt.metrics));
  }
  if (opt.publish_store != nullptr)
    publish_matrix<typename S::value_type>(
        *opt.publish_store, grid, res.dist.view(),
        track_paths ? MatrixView<const std::int64_t>(res.pred.view())
                    : MatrixView<const std::int64_t>{},
        opt.block_size, opt.variant, &pool);
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
  auto res = detail::supervised_run<S>(
      n,
      [&gen](BlockCyclicMatrix<T>& local, mpi::Comm&) { local.fill(gen); },
      grid, ranks_per_node, opt);
  // The input, materialised for the witness pass.
  const Matrix<T> w = track_paths ? gen.full(static_cast<vertex_t>(n))
                                  : Matrix<T>();
  detail::finish_run<S>(res, w.view(), grid, opt, track_paths);
  return res;
}

/// Graph front door: solve APSP for `g` distributed, returning the same
/// ApspResult the core apsp() returns — this is what parfw::solve
/// (dist/solve.hpp) dispatches to for ApspAlgorithm::kDistributed.
/// Requires g.num_vertices() % opt.block_size == 0 (block-cyclic layout).
/// Every variant, placement, checkpoint cut and crash injection runs the
/// same values schedule whether or not track_paths is set.
template <typename S>
ApspResult<typename S::value_type> run_parallel_fw(
    const Graph& g, const GridSpec& grid, int ranks_per_node,
    const DistFwOptions& opt = {}, bool track_paths = false) {
  using T = typename S::value_type;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const Matrix<T> full = g.distance_matrix<S>();
  auto res = detail::supervised_run<S>(
      n,
      [&full](BlockCyclicMatrix<T>& local, mpi::Comm&) {
        local.load(full.view());
      },
      grid, ranks_per_node, opt);
  detail::finish_run<S>(res, full.view(), grid, opt, track_paths);
  ApspResult<T> out;
  out.dist = std::move(res.dist);
  if (track_paths) out.pred = std::move(res.pred);
  return out;
}

}  // namespace parfw::dist
