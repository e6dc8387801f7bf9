// Publish an in-memory APSP result as a served tile manifest.
//
// The solver's checkpoint cuts fire only MID-run (k % every == 0, k > 0),
// so a finished solve leaves no loadable final state — serving needs an
// explicit publish. Distributed runs publish through
// DistFwOptions::publish_store (the driver shards the gathered result over
// the run's own grid). This header covers the other direction: take a
// full in-memory result — any ApspAlgorithm — shard it over a chosen
// row-major serving grid, and write the same per-rank checkpoint-v3 blobs
// + commit record through the same dist::publish_matrix. Both produce
// stores that ServeManifest::open accepts interchangeably.
#pragma once

#include <cstdint>

#include "core/apsp.hpp"
#include "core/checkpoint_store.hpp"
#include "dist/checkpoint.hpp"
#include "sched/variant.hpp"

namespace parfw::serve {

/// Publish an ApspResult (pred payload included iff the solve tracked
/// paths) sharded over a grid_rows x grid_cols row-major serving grid with
/// the given block size (commit k0 = n / b).
template <typename T>
void publish_result(CheckpointStore& store, const ApspResult<T>& result,
                    std::size_t block_size, int grid_rows = 1,
                    int grid_cols = 1,
                    sched::Variant variant = sched::Variant::kBaseline) {
  PARFW_CHECK_MSG(grid_rows > 0 && grid_cols > 0, "bad serving grid");
  MatrixView<const std::int64_t> pred;  // empty = values only
  if (result.pred.has_value()) pred = result.pred->view();
  dist::publish_matrix<T>(store,
                          dist::GridSpec::row_major(grid_rows, grid_cols),
                          result.dist.view(), pred, block_size, variant);
}

}  // namespace parfw::serve
