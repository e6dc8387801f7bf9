// Blocked Floyd-Warshall (paper Algorithm 2) with a one-round look-ahead
// (paper Algorithm 4).
//
// The n x n matrix is processed in nb = ⌈n/b⌉ block iterations. Iteration k:
//   1. DiagUpdate  — close A(k,k)
//   2. PanelUpdate — A(k,j) ← A(k,j) ⊕ A(k,k) ⊗ A(k,j)   (block row)
//                    A(i,k) ← A(i,k) ⊕ A(i,k) ⊗ A(k,k)   (block column)
//   3. MinPlusOuter — A(i,j) ← A(i,j) ⊕ A(i,k) ⊗ A(k,j)  ∀ i,j ≠ k
//
// Steps 1-2 form pivot(k), which ends by snapshotting block row and block
// column k into half k % 2 of a double-buffered panel scratch. Round k is
// step 3, cut into tiles of one block-row strip × at most kOuterTileCols
// columns. Pool workers take tiles from a shared atomic cursor. The tiles
// of block row k+1 and block column k+1 come first, and the worker that
// finishes the last of them runs pivot(k+1) inline while the others drain
// round k's remaining tiles. One parallel_for join ends each round, so
// pivot(start_block) is the only serial work. With no pool (or a 1-worker
// pool) the caller runs the same loop alone.
//
// No locks are needed: round k's tiles read only the round-k snapshots and
// never write block row or column k or k+1, while pivot(k+1) touches only
// block row and column k+1 and the other snapshot half. A release/acquire
// countdown hands the finished (k+1) tiles to pivot(k+1), and the round's
// join hands the new snapshots to round k+1.
//
// PanelUpdate runs in place (C aliases an SRGEMM operand). That is safe
// here because ⊕ is idempotent and A(k,k) is closed: any prematurely
// updated entry only substitutes a candidate that is itself a ⊕-sum of
// valid path candidates, so the fixpoint is unchanged. This is exactly
// the property the paper's asynchronous pipeline also relies on.
//
// A paths solve runs this loop for the values and then the witness pass
// (core/witness.hpp) over the closed matrix; the loop itself never sees a
// predecessor.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/diag_update.hpp"
#include "core/solve_options.hpp"
#include "core/witness.hpp"
#include "srgemm/srgemm.hpp"
#include "util/matrix.hpp"
#include "util/thread_pool.hpp"

namespace parfw {

/// block_size / diag live in the shared SolveCommon base (one source of
/// defaults for all three option structs — see core/solve_options.hpp).
struct BlockedFwOptions : SolveCommon {
  /// Pool whose workers drain each round's tiles; nullptr = sequential.
  ThreadPool* pool = nullptr;
};

namespace detail {

/// Width cap of a MinPlusOuter tile. At b = 64 floats a tile's snapshot
/// slice and destination are 128 KiB each, so both stay in L2.
inline constexpr std::size_t kOuterTileCols = 512;

/// One MinPlusOuter tile: rows [r0, r0+nr) × columns [c0, c0+nc).
struct OuterTile {
  std::size_t r0, nr, c0, nc;
};

/// Append the tiles of row strip [r0, r0+nr) over columns [c0, c1).
inline void push_strip(std::vector<OuterTile>& tiles, std::size_t r0,
                       std::size_t nr, std::size_t c0, std::size_t c1) {
  for (std::size_t c = c0; c < c1; c += kOuterTileCols)
    tiles.push_back({r0, nr, c, std::min(kOuterTileCols, c1 - c)});
}

}  // namespace detail

/// Blocked FW over block iterations [start_block, nb) — the restartable
/// core. With start_block = 0 this is the full Algorithm 2; resuming from
/// a checkpoint's next_block continues an interrupted run exactly
/// (in-place FW state after iteration k fully determines the rest).
/// `on_block(k_done, view)` fires after each completed iteration — the
/// hook periodic checkpointing uses (a single-node run saves the view as
/// a 1x1-grid rank blob, dist/checkpoint.hpp). Because of the
/// look-ahead, the state it sees may already include pivot(k_done):
/// A(k_done,k_done) closed and its panels updated. Resuming from that
/// state is still bit-identical, since re-applying a closed pivot is a
/// no-op under idempotent ⊕.
template <typename S>
void blocked_floyd_warshall_range(
    MatrixView<typename S::value_type> a, std::size_t start_block,
    const BlockedFwOptions& opt = {},
    const std::function<void(std::size_t, MatrixView<typename S::value_type>)>&
        on_block = {}) {
  static_assert(is_idempotent<S>(), "blocked FW requires idempotent semiring");
  using T = typename S::value_type;
  PARFW_CHECK(a.rows() == a.cols());
  PARFW_CHECK_MSG(opt.block_size > 0, "block size must be positive");
  const std::size_t n = a.rows();
  // A block wider than the matrix is the whole matrix.
  const std::size_t b = std::max<std::size_t>(1, std::min(opt.block_size, n));
  const std::size_t nb = (n + b - 1) / b;
  PARFW_CHECK_MSG(start_block <= nb, "resume point beyond the last block");
  if (start_block == nb) return;

  const std::size_t workers = opt.pool != nullptr ? opt.pool->size() : 0;

  // Per-solve scratch: DiagUpdate's squaring buffer and the two halves of
  // the pivot panel snapshots (a single block has no MinPlusOuter).
  Matrix<T> scratch(b, b);
  Matrix<T> row_snap[2], col_snap[2];
  if (nb > 1) {
    for (int h : {0, 1}) {
      row_snap[h] = Matrix<T>(b, n);
      col_snap[h] = Matrix<T>(n, b);
    }
  }

  auto block_range = [&](std::size_t blk) {
    const std::size_t lo = blk * b;
    return std::pair<std::size_t, std::size_t>{lo, std::min(n, lo + b) - lo};
  };

  auto pivot = [&](std::size_t k) {
    const auto [k0, bk] = block_range(k);
    auto akk = a.sub(k0, k0, bk, bk);
    diag_update<S>(akk, opt.diag, scratch.view());
    // PanelUpdate on the panel parts left/above and right/below A(k,k).
    // The panels are dense strips already, so the kernel reads them in
    // place instead of packing a copy per call.
    for (const auto& [c0, nc] :
         {std::pair{std::size_t{0}, k0}, std::pair{k0 + bk, n - k0 - bk}}) {
      if (nc == 0) continue;
      const auto row = a.sub(k0, c0, bk, nc);
      const auto col = a.sub(c0, k0, nc, bk);
      srgemm::multiply_prepacked<S>(akk, row, row);
      srgemm::multiply_prepacked<S>(col, akk, col);
    }
    if (nb == 1) return;
    row_snap[k % 2].sub(0, 0, bk, n).copy_from(a.sub(k0, 0, bk, n));
    col_snap[k % 2].sub(0, 0, n, bk).copy_from(a.sub(0, k0, n, bk));
  };

  std::vector<detail::OuterTile> tiles;
  std::atomic<std::size_t> cursor{0}, ahead_left{0};
  pivot(start_block);
  for (std::size_t k = start_block; k < nb; ++k) {
    const auto [k0, bk] = block_range(k);
    const std::size_t k1 = k0 + bk, bk1 = std::min(n, k1 + b) - k1;
    const bool ahead = bk1 > 0;

    // Look-ahead tiles first: block row k+1, then block column k+1. The
    // other block rows skip block columns k and k+1.
    tiles.clear();
    if (ahead) {
      detail::push_strip(tiles, k1, bk1, 0, k0);
      detail::push_strip(tiles, k1, bk1, k1, n);
      for (std::size_t i = 0; i < nb; ++i) {
        if (i == k || i == k + 1) continue;
        const auto [r0, nr] = block_range(i);
        tiles.push_back({r0, nr, k1, bk1});
      }
    }
    const std::size_t n_ahead = tiles.size();
    for (std::size_t i = 0; i < nb; ++i) {
      if (i == k || i == k + 1) continue;
      const auto [r0, nr] = block_range(i);
      detail::push_strip(tiles, r0, nr, 0, k0);
      detail::push_strip(tiles, r0, nr, k1 + bk1, n);
    }

    cursor.store(0, std::memory_order_relaxed);
    ahead_left.store(n_ahead, std::memory_order_relaxed);
    const auto& row_panel = row_snap[k % 2];
    const auto& col_panel = col_snap[k % 2];
    auto drain = [&] {
      for (;;) {
        const std::size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
        if (t >= tiles.size()) return;
        const detail::OuterTile& x = tiles[t];
        const auto lhs = col_panel.sub(x.r0, 0, x.nr, bk);
        const auto rhs = row_panel.sub(0, x.c0, bk, x.nc);
        const auto dst = a.sub(x.r0, x.c0, x.nr, x.nc);
        srgemm::multiply_prepacked<S>(lhs, rhs, dst);
        if (t < n_ahead &&
            ahead_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
          pivot(k + 1);
      }
    };
    if (workers > 1)
      opt.pool->parallel_for(std::min(workers, tiles.size()),
                             [&](std::size_t) { drain(); });
    else
      drain();
    if (on_block) on_block(k + 1, a);
  }
}

/// In-place blocked FW over any idempotent semiring (paper Algorithm 2).
template <typename S>
void blocked_floyd_warshall(MatrixView<typename S::value_type> a,
                            const BlockedFwOptions& opt = {}) {
  blocked_floyd_warshall_range<S>(a, 0, opt);
}

/// Blocked FW on the calling thread, then the witness pass: `a` holds the
/// input matrix on entry and the closed matrix on return, `pred` (n x n,
/// contents on entry ignored) the witness predecessors.
template <typename S>
void blocked_floyd_warshall_paths(MatrixView<typename S::value_type> a,
                                  MatrixView<std::int64_t> pred,
                                  std::size_t block_size = 64) {
  using T = typename S::value_type;
  PARFW_CHECK(pred.rows() == a.rows() && pred.cols() == a.cols());
  Matrix<T> w(a.rows(), a.cols());
  w.view().copy_from(a);
  blocked_floyd_warshall<S>(a, {{.block_size = block_size}});
  witness_predecessors<S>(w.view(), a, pred);
}

/// FLOP count of blocked FW under the 2·n³ convention (paper §2.7.1).
inline double blocked_fw_flops(std::size_t n) {
  const double nd = static_cast<double>(n);
  return 2.0 * nd * nd * nd;
}

}  // namespace parfw
