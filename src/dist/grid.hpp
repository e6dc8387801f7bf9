// 2-D process grid and rank placement (paper §2.5.1, §3.4).
//
// The grid maps logical coordinates (r, c) with 0 ≤ r < P_r, 0 ≤ c < P_c
// onto world ranks. Placement matters because all ranks on a node share
// one NIC: the paper shows per-node traffic is minimised when the NODE
// grid is square (K_r ≈ K_c) with a square intranode grid (Q_r ≈ Q_c),
// Figure 1. Two placements are provided:
//
//  * row_major — the naive default (consecutive world ranks fill grid
//    rows), equivalent to a 1 x Q intranode grid;
//  * tiled — the paper's optimal placement: each node owns a Q_r x Q_c
//    sub-tile of the grid, nodes tile the K_r x K_c node grid.
#pragma once

#include <cstddef>
#include <vector>

#include "mpisim/runtime.hpp"
#include "util/check.hpp"

namespace parfw::dist {

/// Blocks {mine, mine+p, mine+2p, ...} below nb: how many blocks of an
/// nb-block dimension position `mine` of `p` owns block-cyclically.
inline std::size_t owned_blocks(std::size_t nb, int mine, int p) {
  const std::size_t m = static_cast<std::size_t>(mine);
  return m >= nb ? 0 : (nb - m - 1) / static_cast<std::size_t>(p) + 1;
}

struct GridCoord {
  int row = 0;
  int col = 0;
  bool operator==(const GridCoord&) const = default;
};

class GridSpec {
 public:
  GridSpec() = default;

  int rows() const { return pr_; }
  int cols() const { return pc_; }
  int size() const { return pr_ * pc_; }
  /// Intranode grid dimensions this placement was built with (1x1 when
  /// placement ignores nodes).
  int qr() const { return qr_; }
  int qc() const { return qc_; }

  int world_rank(GridCoord c) const {
    PARFW_DCHECK(c.row >= 0 && c.row < pr_ && c.col >= 0 && c.col < pc_);
    return coord_to_world_[static_cast<std::size_t>(c.row * pc_ + c.col)];
  }
  GridCoord coord_of(int world_rank) const {
    PARFW_DCHECK(world_rank >= 0 && world_rank < size());
    return world_to_coord_[static_cast<std::size_t>(world_rank)];
  }

  /// Naive placement: world rank r sits at grid (r / P_c, r % P_c).
  static GridSpec row_major(int pr, int pc);

  /// Paper-optimal placement (Figure 1): node grid K_r x K_c, intranode
  /// grid Q_r x Q_c, with P_r = K_r·Q_r and P_c = K_c·Q_c. World ranks are
  /// numbered contiguously within a node (matching how jsrun/mpirun fill
  /// nodes), and each node's Q ranks form a Q_r x Q_c tile of the grid.
  static GridSpec tiled(int kr, int kc, int qr, int qc);

  /// Node model for this run: ranks are packed onto nodes contiguously by
  /// world rank (how jsrun fills nodes). ranks_per_node is a machine
  /// property; pass qr()*qc() to match a tiled placement's assumption.
  mpi::NodeModel node_model(int ranks_per_node) const {
    return mpi::NodeModel::contiguous(size(), ranks_per_node);
  }

 private:
  int pr_ = 1, pc_ = 1, qr_ = 1, qc_ = 1;
  std::vector<int> coord_to_world_;
  std::vector<GridCoord> world_to_coord_;

  void build_inverse();
};

}  // namespace parfw::dist
