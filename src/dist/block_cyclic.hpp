// 2-D block-cyclic distribution of the distance matrix (paper §2.5.1).
//
// Global block (I, J) of size b x b lives on the rank at grid coordinate
// (I mod P_r, J mod P_c). A rank's blocks are stored packed into ONE local
// row-major matrix of shape (nlr·b) x (nlc·b), where nlr/nlc are the
// counts of owned block rows/columns: local block (il, jl) is the
// sub-view at (il·b, jl·b). Packing the blocks lets PanelUpdate and
// OuterUpdate run as single strip-level SRGEMM calls over the whole local
// matrix — the same reason the paper's implementation stores the local
// matrix contiguously on the GPU.
//
// The global matrix dimension must be a multiple of the block size (the
// paper's configurations all satisfy this; padding is the caller's job).
#pragma once

#include <cstdint>
#include <vector>

#include "dist/grid.hpp"
#include "graph/graph.hpp"
#include "mpisim/communicator.hpp"
#include "util/matrix.hpp"

namespace parfw::dist {

template <typename T>
class BlockCyclicMatrix {
 public:
  /// Layout for dimension n, block size b, on `grid`, as seen by the rank
  /// at grid coordinate `me`.
  BlockCyclicMatrix(std::size_t n, std::size_t b, const GridSpec& grid,
                    GridCoord me)
      : n_(n), b_(b), nb_(n / b), grid_(grid), me_(me) {
    PARFW_CHECK_MSG(n % b == 0, "matrix dim " << n
                                              << " not a multiple of block "
                                              << b);
    nlr_ = owned_blocks(nb_, me_.row, grid_.rows());
    nlc_ = owned_blocks(nb_, me_.col, grid_.cols());
    local_ = Matrix<T>(nlr_ * b_, nlc_ * b_);
  }

  std::size_t n() const { return n_; }
  std::size_t block_size() const { return b_; }
  std::size_t num_blocks() const { return nb_; }         ///< per dimension
  std::size_t local_block_rows() const { return nlr_; }
  std::size_t local_block_cols() const { return nlc_; }
  GridCoord coord() const { return me_; }
  const GridSpec& grid() const { return grid_; }

  Matrix<T>& local() { return local_; }
  const Matrix<T>& local() const { return local_; }

  bool owns_block_row(std::size_t gI) const {
    return static_cast<int>(gI % static_cast<std::size_t>(grid_.rows())) ==
           me_.row;
  }
  bool owns_block_col(std::size_t gJ) const {
    return static_cast<int>(gJ % static_cast<std::size_t>(grid_.cols())) ==
           me_.col;
  }
  bool owns_block(std::size_t gI, std::size_t gJ) const {
    return owns_block_row(gI) && owns_block_col(gJ);
  }
  /// Local block-row index of global block-row gI (must be owned).
  std::size_t local_row(std::size_t gI) const {
    PARFW_DCHECK(owns_block_row(gI));
    return gI / static_cast<std::size_t>(grid_.rows());
  }
  std::size_t local_col(std::size_t gJ) const {
    PARFW_DCHECK(owns_block_col(gJ));
    return gJ / static_cast<std::size_t>(grid_.cols());
  }
  /// Global block-row index of local block-row il.
  std::size_t global_row(std::size_t il) const {
    return il * static_cast<std::size_t>(grid_.rows()) +
           static_cast<std::size_t>(me_.row);
  }
  std::size_t global_col(std::size_t jl) const {
    return jl * static_cast<std::size_t>(grid_.cols()) +
           static_cast<std::size_t>(me_.col);
  }

  MatrixView<T> block(std::size_t il, std::size_t jl) {
    return local_.sub(il * b_, jl * b_, b_, b_);
  }

  /// Fill every owned entry from a deterministic per-entry generator —
  /// no communication, identical to the sequential oracle's matrix.
  void fill(const DenseEntryGen<T>& gen) {
    for (std::size_t il = 0; il < nlr_; ++il)
      for (std::size_t jl = 0; jl < nlc_; ++jl)
        gen.fill_block(static_cast<vertex_t>(global_row(il) * b_),
                       static_cast<vertex_t>(global_col(jl) * b_),
                       block(il, jl));
  }

  /// Scatter-free load from a full matrix (each rank copies its blocks).
  void load(MatrixView<const T> full) {
    PARFW_CHECK(full.rows() == n_ && full.cols() == n_);
    for (std::size_t il = 0; il < nlr_; ++il)
      for (std::size_t jl = 0; jl < nlc_; ++jl)
        block(il, jl).copy_from(
            full.sub(global_row(il) * b_, global_col(jl) * b_, b_, b_));
  }

  /// Gather the distributed matrix to world rank 0 (returns an empty
  /// matrix elsewhere). Collective over `world`.
  Matrix<T> gather(mpi::Comm& world) const {
    const mpi::tag_t kTag = 100;
    if (world.rank() != 0) {
      world.send(std::span<const T>(local_.data(), local_.size()), 0, kTag);
      return {};
    }
    Matrix<T> full(n_, n_);
    for (int r = 0; r < world.size(); ++r) {
      const GridCoord rc = grid_.coord_of(r);
      BlockCyclicMatrix<T> peer(n_, b_, grid_, rc);
      if (r == 0)
        peer.local_ = local_.clone();
      else
        world.recv(std::span<T>(peer.local_.data(), peer.local_.size()), r,
                   kTag);
      for (std::size_t il = 0; il < peer.nlr_; ++il)
        for (std::size_t jl = 0; jl < peer.nlc_; ++jl)
          full.sub(peer.global_row(il) * b_, peer.global_col(jl) * b_, b_, b_)
              .copy_from(peer.block(il, jl));
    }
    return full;
  }

 private:
  std::size_t n_, b_, nb_;
  GridSpec grid_;
  GridCoord me_;
  std::size_t nlr_ = 0, nlc_ = 0;
  Matrix<T> local_;
};

}  // namespace parfw::dist
