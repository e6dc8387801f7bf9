// Publish an in-memory APSP result as a served tile manifest.
//
// The solver's checkpoint cuts fire only MID-run (k % every == 0, k > 0),
// so a finished solve leaves no loadable final state — serving needs an
// explicit publish. Distributed runs publish in situ (driver.hpp honours
// DistFwOptions::publish_store: every rank snapshots its final tiles with
// k0 = nb, then rank 0 commits). This header covers the other direction:
// take a full in-memory result — any ApspAlgorithm, or a gathered
// distributed run — shard it over a chosen serving grid, and write the
// same per-rank checkpoint-v3 blobs + commit record. Both paths produce
// stores that ServeManifest::open accepts interchangeably.
#pragma once

#include <cstdint>

#include "core/apsp.hpp"
#include "core/checkpoint_store.hpp"
#include "dist/checkpoint.hpp"
#include "sched/variant.hpp"
#include "util/matrix.hpp"

namespace parfw::serve {

/// Shard `dist` (and `pred`, when non-null) over a grid_rows x grid_cols
/// row-major serving grid with the given block size and publish the
/// result into `store` as a completed-run manifest (commit k0 = n / b).
template <typename T>
void publish_matrix(CheckpointStore& store, MatrixView<const T> distv,
                    const Matrix<std::int64_t>* pred, std::size_t block_size,
                    int grid_rows = 1, int grid_cols = 1,
                    sched::Variant variant = sched::Variant::kBaseline) {
  const std::size_t n = distv.rows();
  PARFW_CHECK_MSG(n == distv.cols(), "publish needs a square matrix");
  PARFW_CHECK_MSG(block_size > 0 && n % block_size == 0,
                  "n=" << n << " is not a multiple of the serving block size "
                       << block_size);
  PARFW_CHECK_MSG(grid_rows > 0 && grid_cols > 0, "bad serving grid");
  const dist::GridSpec grid = dist::GridSpec::row_major(grid_rows, grid_cols);
  dist::SchedulePosition pos;
  pos.variant = variant;
  pos.k0 = n / block_size;  // every pivot round done: a completed solve
  for (int w = 0; w < grid.size(); ++w) {
    const dist::GridCoord c = grid.coord_of(w);
    dist::BlockCyclicMatrix<T> local(n, block_size, grid, c);
    local.load(distv);
    if (pred != nullptr) {
      dist::BlockCyclicMatrix<std::int64_t> plocal(n, block_size, grid, c);
      plocal.load(pred->view());
      dist::save_rank_checkpoint(store, local, pos, &plocal);
    } else {
      dist::save_rank_checkpoint(store, local, pos, nullptr);
    }
  }
  dist::write_commit(store, dist::commit_record(pos, n, block_size,
                                                grid.size()));
}

/// Publish an ApspResult (pred payload included iff the solve tracked
/// paths).
template <typename T>
void publish_result(CheckpointStore& store, const ApspResult<T>& result,
                    std::size_t block_size, int grid_rows = 1,
                    int grid_cols = 1,
                    sched::Variant variant = sched::Variant::kBaseline) {
  publish_matrix<T>(store, result.dist.view(),
                    result.pred.has_value() ? &*result.pred : nullptr,
                    block_size, grid_rows, grid_cols, variant);
}

}  // namespace parfw::serve
