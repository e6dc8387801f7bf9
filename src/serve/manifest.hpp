// ServeManifest — the read-side view of a published checkpoint-v3 run.
//
// A completed solve publishes one checkpoint-v3 blob per rank (its local
// tiles, plus the optional pred tiles) and a commit record with k0 == nb,
// i.e. "every pivot iteration done" (driver.hpp's publish step, or
// serve::publish_result for in-memory results). Opening a manifest reads
// ONLY the commit record and each rank blob's header and tile table —
// never a tile — checks each header CRC, and derives:
//
//   * the geometry (n, b, grid shape, element widths), cross-validated
//     across ranks;
//   * the owner map: global block (I, J) -> world rank, reconstructed
//     from the coordinates each blob states for itself, so any placement
//     (row-major or tiled) that the producing GridSpec used round-trips
//     without the manifest knowing placement existed;
//   * which rank blob holds tile (I, J); that blob's decoded layout
//     (dist/checkpoint.hpp) gives the tile's one byte range and its
//     CRC32C, which PathService reads with CheckpointStore::get_ranges
//     and checks before the tile is used.
//
// A store holding only mid-run cuts (k0 < nb — the normal state after a
// crash-resume run that never published) is rejected with a hard error:
// serving half-closed distances would be silently wrong.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "dist/checkpoint.hpp"
#include "serve/tile_cache.hpp"

namespace parfw::serve {

/// One rank's published blob: its store key and decoded layout, tile
/// table included.
struct RankBlob {
  std::string key;
  dist::RankBlobLayout layout;
};

class ServeManifest {
 public:
  /// Open + validate the published manifest in `store`. Throws check_error
  /// on: no commit record, a mid-run (k0 < nb) commit, missing or short
  /// rank blobs, a header or tile table that fails its CRC, or cross-rank
  /// geometry disagreement.
  static ServeManifest open(const CheckpointStore& store);

  std::uint64_t n() const { return n_; }
  std::uint64_t block_size() const { return block_size_; }
  std::uint64_t num_blocks() const { return nb_; }  ///< per dimension
  std::uint32_t grid_rows() const { return grid_rows_; }
  std::uint32_t grid_cols() const { return grid_cols_; }
  std::uint32_t world_size() const { return world_size_; }
  std::uint32_t elem_size() const { return elem_size_; }
  std::uint32_t pred_elem_size() const { return pred_elem_size_; }
  std::uint32_t variant() const { return variant_; }
  bool has_pred() const { return pred_elem_size_ != 0; }

  /// World rank owning global block (I, J) under the block-cyclic map.
  int owner_of(std::uint64_t block_row, std::uint64_t block_col) const;
  const RankBlob& rank(int world_rank) const;

  /// Where tile (I, J) sits inside its owner's blob, and its CRC32C.
  dist::TileSlice tile_range(std::uint64_t block_row, std::uint64_t block_col,
                             TileKind kind) const;

 private:
  std::uint64_t n_ = 0, block_size_ = 0, nb_ = 0;
  std::uint32_t grid_rows_ = 0, grid_cols_ = 0, world_size_ = 0;
  std::uint32_t elem_size_ = 0, pred_elem_size_ = 0, variant_ = 0;
  std::vector<RankBlob> ranks_;       ///< indexed by world rank
  std::vector<int> rank_of_coord_;    ///< grid_rows x grid_cols, row-major
};

}  // namespace parfw::serve
