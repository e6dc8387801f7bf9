#include "serve/manifest.hpp"

#include <utility>

#include "util/check.hpp"

namespace parfw::serve {

ServeManifest ServeManifest::open(const CheckpointStore& store) {
  auto commit = dist::read_commit(store);
  PARFW_CHECK_MSG(commit.has_value(),
                  "store holds no committed tile manifest — did the "
                  "producing run publish? (dist runs need "
                  "DistFwOptions::publish_store / DistStrategy::"
                  "publish_store; in-memory results use "
                  "serve::publish_result)");
  ServeManifest m;
  m.n_ = commit->n;
  m.block_size_ = commit->block_size;
  PARFW_CHECK_MSG(m.block_size_ > 0 && m.n_ % m.block_size_ == 0,
                  "commit record has bad geometry: n=" << m.n_ << " b="
                                                       << m.block_size_);
  m.nb_ = m.n_ / m.block_size_;
  PARFW_CHECK_MSG(
      commit->k0 == m.nb_,
      "committed cut is a mid-run checkpoint (k0=" << commit->k0 << " of "
          << m.nb_ << " pivot rounds), not a completed solve — serving "
          "half-closed distances would be wrong; publish the finished run");
  m.world_size_ = commit->world_size;
  m.variant_ = commit->variant;
  PARFW_CHECK_MSG(m.world_size_ > 0, "commit record names no ranks");

  // The store is outside input: world_size and the grid shape are only
  // promises until every blob they name has been found, so ranks_ grows
  // one found blob at a time and rank_of_coord_ is sized after the loop.
  std::uint8_t header_bytes[dist::kRankBlobHeaderBytes];
  std::vector<std::uint8_t> table;
  for (std::uint32_t w = 0; w < m.world_size_; ++w) {
    RankBlob rb;
    rb.key = dist::rank_checkpoint_key(commit->k0, static_cast<int>(w));
    const auto read = [&](ByteRange r, std::uint8_t* out) {
      PARFW_CHECK_MSG(
          store.get_ranges(rb.key, std::span<const ByteRange>(&r, 1), out),
          "manifest names rank " << w << " but blob '" << rb.key
                                 << "' is missing");
    };
    read({0, sizeof(header_bytes)}, header_bytes);
    rb.layout = dist::decode_rank_blob_header(header_bytes, rb.key);
    // Read the last byte the header implies before sizing anything from
    // it: a short blob fails here (get_ranges throws), not at a fetch.
    std::uint8_t last = 0;
    read({rb.layout.blob_bytes - 1, 1}, &last);
    table.resize(rb.layout.payload_offset);
    read({0, rb.layout.payload_offset}, table.data());
    dist::decode_rank_blob_table(rb.layout, table, rb.key);
    const auto& h = rb.layout.header;
    const auto& ext = rb.layout.ext;
    PARFW_CHECK_MSG(h.n == m.n_ && h.block_size == m.block_size_ &&
                        h.next_block == commit->k0,
                    "rank " << w << " blob disagrees with the commit record "
                            << "(n=" << h.n << " b=" << h.block_size
                            << " k0=" << h.next_block << ")");
    if (w == 0) {
      m.elem_size_ = h.elem_size;
      m.pred_elem_size_ = ext.pred_elem_size;
      m.grid_rows_ = ext.grid_rows;
      m.grid_cols_ = ext.grid_cols;
      PARFW_CHECK_MSG(
          static_cast<std::uint64_t>(m.grid_rows_) * m.grid_cols_ ==
              m.world_size_,
          "grid " << m.grid_rows_ << "x" << m.grid_cols_
                  << " does not cover world size " << m.world_size_);
    } else {
      PARFW_CHECK_MSG(h.elem_size == m.elem_size_ &&
                          ext.pred_elem_size == m.pred_elem_size_ &&
                          ext.grid_rows == m.grid_rows_ &&
                          ext.grid_cols == m.grid_cols_,
                      "rank " << w << " blob geometry diverges from rank 0");
    }
    m.ranks_.push_back(std::move(rb));
  }

  // grid_rows x grid_cols == world_size, and that many blobs exist.
  m.rank_of_coord_.assign(m.world_size_, -1);
  for (std::uint32_t w = 0; w < m.world_size_; ++w) {
    const auto& ext = m.ranks_[w].layout.ext;
    const std::size_t slot =
        static_cast<std::size_t>(ext.coord_row) * m.grid_cols_ +
        static_cast<std::size_t>(ext.coord_col);
    PARFW_CHECK_MSG(m.rank_of_coord_[slot] < 0,
                    "two ranks claim grid coordinate (" << ext.coord_row
                                                        << "," << ext.coord_col
                                                        << ")");
    m.rank_of_coord_[slot] = static_cast<int>(w);
  }
  return m;
}

int ServeManifest::owner_of(std::uint64_t block_row,
                            std::uint64_t block_col) const {
  PARFW_DCHECK(block_row < nb_ && block_col < nb_);
  const std::size_t slot =
      static_cast<std::size_t>(block_row % grid_rows_) * grid_cols_ +
      static_cast<std::size_t>(block_col % grid_cols_);
  return rank_of_coord_[slot];
}

const RankBlob& ServeManifest::rank(int world_rank) const {
  PARFW_CHECK_MSG(world_rank >= 0 &&
                      static_cast<std::size_t>(world_rank) < ranks_.size(),
                  "rank " << world_rank << " outside the manifest");
  return ranks_[static_cast<std::size_t>(world_rank)];
}

dist::TileSlice ServeManifest::tile_range(std::uint64_t block_row,
                                          std::uint64_t block_col,
                                          TileKind kind) const {
  PARFW_CHECK_MSG(block_row < nb_ && block_col < nb_,
                  "tile (" << block_row << "," << block_col
                           << ") outside the " << nb_ << "^2 block grid");
  PARFW_CHECK_MSG(kind == TileKind::kValue || has_pred(),
                  "pred tile requested from a values-only manifest");
  return ranks_[static_cast<std::size_t>(owner_of(block_row, block_col))]
      .layout.tile_range(block_row, block_col, kind == TileKind::kPred);
}

}  // namespace parfw::serve
