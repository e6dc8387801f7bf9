// Checkpoint-v3 codec and the coordinated-cut commit protocol (DESIGN.md
// "Resilience") — the only code that knows how APSP state sits on disk.
//
// Blocked FW is naturally checkpointable: after iteration k the matrix
// state fully determines the remaining work, so a checkpoint is (k,
// tiles). At a coordinated kCheckpoint cut every rank writes one blob —
// its BlockCyclicMatrix local tiles plus the schedule position (variant,
// k0, sched op index) — to the run's CheckpointStore under a key derived
// from (k0, world rank). Once ALL ranks' blobs are stored (a barrier),
// rank 0 writes a small commit record naming k0; a checkpoint without a
// commit record does not exist as far as restart is concerned, so a crash
// mid-snapshot falls back to the previous committed cut (whose blobs live
// under different keys). A published (served) run is the same protocol at
// k0 = nb. A single-node run is the 1x1 grid.
//
// Rank blob layout (native byte order), v3, for t = tile_count tiles of
// b x b elements:
//
//   [0, 40)    CheckpointHeader   magic, version, elem_size, n,
//                                 next_block (= k0), block_size
//   [40, 80)   CheckpointExt      variant, grid shape, grid coordinate,
//                                 pred_elem_size, sched_op_index,
//                                 tile_count
//   [80, 80 + 24 t)               t x CheckpointTileRef: global
//                                 (block_row, block_col) of each local
//                                 tile in row-major local order, with the
//                                 CRC32C of its value and pred tile
//   8 bytes    header_crc32c      CRC32C of every byte before it (header,
//                                 ext, tile table), zero-extended to 64
//                                 bits so the payload stays 8-byte aligned
//   value tiles                   t tiles in tile-table order, each one
//                                 b x b row-major block stored contiguously
//   pred tiles                    present iff pred_elem_size != 0: the
//                                 predecessor tiles, same order and shape
//
// Tiles are the unit of both I/O and integrity: a served fetch is one
// ranged read of one tile, checked against the CRC the manifest read from
// the tile table; a resume checks the header CRC and every tile CRC
// before it writes anything back. A mismatch is a check_error naming the
// key and, for payload bytes, the tile.
//
// Restart (driver.hpp supervision loop): every rank reads the committed
// k0's blob back into a freshly laid-out BlockCyclicMatrix and re-enters
// parallel_fw_resume at start_k = k0. The resumed schedule re-derives the
// panel buffers from the tiles (sched::ScheduleParams::start_k), so tiles
// are the ONLY state a blob needs to carry.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "dist/block_cyclic.hpp"
#include "mpisim/communicator.hpp"
#include "sched/variant.hpp"
#include "util/aligned_buffer.hpp"
#include "util/crc32c.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace parfw::dist {

struct CheckpointHeader {
  static constexpr std::uint64_t kMagic = 0x50464b43'50415246ull;  // "PARFWCKP"
  static constexpr std::uint32_t kVersion = 3;
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t elem_size = 0;
  std::uint64_t n = 0;
  std::uint64_t next_block = 0;  ///< first UNfinished block iteration (k0)
  std::uint64_t block_size = 0;
};

/// Extension, immediately after the header.
struct CheckpointExt {
  std::uint32_t variant = 0;     ///< sched::Variant of the producing run
  std::uint32_t grid_rows = 1;   ///< process grid shape
  std::uint32_t grid_cols = 1;
  std::int32_t coord_row = 0;    ///< producing rank's grid coordinate
  std::int32_t coord_col = 0;
  /// sizeof one predecessor id when the blob carries pred tiles after the
  /// value tiles (a published paths result); 0 = values only.
  std::uint32_t pred_elem_size = 0;
  std::uint64_t sched_op_index = 0;  ///< schedule position within the run
  std::uint64_t tile_count = 0;      ///< tile table entries
};

/// One tile-table entry: the global block coordinate of a local tile, in
/// the order the tiles appear in the payload, and the CRC32C of its
/// value and pred tile (pred_crc32c is 0 in a values-only blob).
struct CheckpointTileRef {
  std::uint64_t block_row = 0;
  std::uint64_t block_col = 0;
  std::uint32_t value_crc32c = 0;
  std::uint32_t pred_crc32c = 0;
};
static_assert(sizeof(CheckpointHeader) == 40 && sizeof(CheckpointExt) == 40 &&
                  sizeof(CheckpointTileRef) == 24,
              "checkpoint blob layout is part of the on-disk format");

inline constexpr std::size_t kRankBlobHeaderBytes =
    sizeof(CheckpointHeader) + sizeof(CheckpointExt);
/// The header checksum word after the tile table.
inline constexpr std::size_t kHeaderCrcBytes = sizeof(std::uint64_t);

/// Where one tile sits in its rank blob and the CRC32C its bytes carry.
struct TileSlice {
  ByteRange range;
  std::uint32_t crc32c = 0;
};

/// A validated rank-blob header and the byte layout it implies.
struct RankBlobLayout {
  CheckpointHeader header;
  CheckpointExt ext;
  std::uint64_t local_block_rows = 0, local_block_cols = 0;
  std::uint64_t header_crc_offset = 0;    ///< the header checksum word
  std::uint64_t payload_offset = 0;       ///< first value tile
  std::uint64_t pred_payload_offset = 0;  ///< first pred tile (= end of values)
  std::uint64_t blob_bytes = 0;           ///< total size the header implies
  /// The tile table; empty until decode_rank_blob_table has checked it.
  std::vector<CheckpointTileRef> tiles;

  std::uint64_t tile_bytes(bool pred) const {
    const std::uint64_t b = header.block_size;
    return b * b * (pred ? ext.pred_elem_size : header.elem_size);
  }
  /// Tile t (in table order) of the value or pred payload.
  TileSlice tile_slice(std::uint64_t t, bool pred) const {
    PARFW_DCHECK(t < tiles.size());
    const std::uint64_t tb = tile_bytes(pred);
    return TileSlice{
        ByteRange{(pred ? pred_payload_offset : payload_offset) + t * tb, tb},
        pred ? tiles[t].pred_crc32c : tiles[t].value_crc32c};
  }
  /// Global tile (I, J) — which this rank must own.
  TileSlice tile_range(std::uint64_t block_row, std::uint64_t block_col,
                       bool pred) const {
    PARFW_DCHECK(block_row % ext.grid_rows ==
                     static_cast<std::uint64_t>(ext.coord_row) &&
                 block_col % ext.grid_cols ==
                     static_cast<std::uint64_t>(ext.coord_col));
    return tile_slice((block_row / ext.grid_rows) * local_block_cols +
                          block_col / ext.grid_cols,
                      pred);
  }
};

/// Decode and validate the first kRankBlobHeaderBytes of the rank blob
/// stored under `key`. Blobs are outside input: every field is checked
/// (magic, version, element widths, geometry, grid coordinate, table
/// length) and every implied size is computed without wrapping before
/// anything is sized from it. Throws check_error naming `key`.
inline RankBlobLayout decode_rank_blob_header(
    std::span<const std::uint8_t> bytes, const std::string& key) {
  PARFW_CHECK_MSG(bytes.size() >= kRankBlobHeaderBytes,
                  "checkpoint '" << key << "' is truncated: " << bytes.size()
                                 << " bytes, the header needs "
                                 << kRankBlobHeaderBytes);
  RankBlobLayout l;
  std::memcpy(&l.header, bytes.data(), sizeof(l.header));
  std::memcpy(&l.ext, bytes.data() + sizeof(l.header), sizeof(l.ext));
  const CheckpointHeader& h = l.header;
  const CheckpointExt& e = l.ext;
  PARFW_CHECK_MSG(h.magic == CheckpointHeader::kMagic,
                  "'" << key << "' is not a parallelfw checkpoint");
  PARFW_CHECK_MSG(h.version == CheckpointHeader::kVersion,
                  "unsupported checkpoint version " << h.version << " in '"
                                                    << key << "'");
  PARFW_CHECK_MSG(std::has_single_bit(h.elem_size) && h.elem_size <= 8,
                  "checkpoint '" << key << "' element size " << h.elem_size);
  PARFW_CHECK_MSG(e.pred_elem_size == 0 ||
                      e.pred_elem_size == sizeof(std::int64_t),
                  "checkpoint '" << key << "' pred element size "
                                 << e.pred_elem_size);
  PARFW_CHECK_MSG(h.block_size > 0 && h.n % h.block_size == 0,
                  "checkpoint '" << key << "' has bad geometry: n = " << h.n
                                 << ", block size " << h.block_size);
  constexpr std::uint32_t kIntMax = std::numeric_limits<std::int32_t>::max();
  PARFW_CHECK_MSG(e.grid_rows >= 1 && e.grid_rows <= kIntMax &&
                      e.grid_cols >= 1 && e.grid_cols <= kIntMax &&
                      e.coord_row >= 0 &&
                      static_cast<std::uint32_t>(e.coord_row) < e.grid_rows &&
                      e.coord_col >= 0 &&
                      static_cast<std::uint32_t>(e.coord_col) < e.grid_cols,
                  "checkpoint '" << key << "' states coordinate ("
                                 << e.coord_row << "," << e.coord_col
                                 << ") on a " << e.grid_rows << "x"
                                 << e.grid_cols << " grid");
  const std::uint64_t nb = h.n / h.block_size;
  l.local_block_rows = owned_blocks(nb, e.coord_row,
                                    static_cast<int>(e.grid_rows));
  l.local_block_cols = owned_blocks(nb, e.coord_col,
                                    static_cast<int>(e.grid_cols));
  // Every product below is bounded by the header's claims only; refuse
  // one that wraps rather than address a wrapped offset.
  auto mul = [&key](std::uint64_t x, std::uint64_t y) {
    std::uint64_t r = 0;
    PARFW_CHECK_MSG(!__builtin_mul_overflow(x, y, &r),
                    "checkpoint '" << key << "' sizes overflow 64 bits");
    return r;
  };
  auto add = [&key](std::uint64_t x, std::uint64_t y) {
    std::uint64_t r = 0;
    PARFW_CHECK_MSG(!__builtin_add_overflow(x, y, &r),
                    "checkpoint '" << key << "' sizes overflow 64 bits");
    return r;
  };
  const std::uint64_t tiles = mul(l.local_block_rows, l.local_block_cols);
  PARFW_CHECK_MSG(e.tile_count == tiles,
                  "checkpoint '" << key << "' tile table length "
                                 << e.tile_count << " != " << tiles
                                 << " tiles its coordinate owns");
  const std::uint64_t elems = mul(tiles, mul(h.block_size, h.block_size));
  l.header_crc_offset =
      add(kRankBlobHeaderBytes, mul(tiles, sizeof(CheckpointTileRef)));
  l.payload_offset = add(l.header_crc_offset, kHeaderCrcBytes);
  l.pred_payload_offset = add(l.payload_offset, mul(elems, h.elem_size));
  l.blob_bytes = add(l.pred_payload_offset, mul(elems, e.pred_elem_size));
  return l;
}

/// Check the header checksum over `bytes` (at least the blob's first
/// l.payload_offset bytes: header, ext, tile table and checksum word) and
/// fill l.tiles from the tile table, whose coordinates must be the ones
/// the stated grid coordinate owns. Throws check_error naming `key`.
inline void decode_rank_blob_table(RankBlobLayout& l,
                                   std::span<const std::uint8_t> bytes,
                                   const std::string& key) {
  PARFW_CHECK_MSG(bytes.size() >= l.payload_offset,
                  "checkpoint '" << key << "' is truncated: " << bytes.size()
                                 << " bytes, its header and tile table need "
                                 << l.payload_offset);
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + l.header_crc_offset, sizeof(stored));
  const std::uint32_t crc = crc32c(bytes.first(l.header_crc_offset));
  PARFW_CHECK_MSG(stored == crc, "checkpoint '"
                                     << key
                                     << "' header fails its CRC32C check "
                                        "(stored 0x"
                                     << std::hex << stored << ", computed 0x"
                                     << crc << ")");
  l.tiles.resize(l.ext.tile_count);
  // copy_n, not memcpy: a rank owning no tiles has an empty table.
  std::copy_n(bytes.data() + kRankBlobHeaderBytes,
              l.tiles.size() * sizeof(CheckpointTileRef),
              reinterpret_cast<std::uint8_t*>(l.tiles.data()));
  for (std::uint64_t t = 0; t < l.tiles.size(); ++t) {
    const CheckpointTileRef& ref = l.tiles[t];
    const std::uint64_t il = t / l.local_block_cols;
    const std::uint64_t jl = t % l.local_block_cols;
    PARFW_CHECK_MSG(
        ref.block_row == il * l.ext.grid_rows + l.ext.coord_row &&
            ref.block_col == jl * l.ext.grid_cols + l.ext.coord_col,
        "checkpoint '" << key << "' tile table entry " << t << " names tile ("
                       << ref.block_row << "," << ref.block_col
                       << "), not one its coordinate owns at (" << il << ","
                       << jl << ")");
  }
}

/// Throw check_error unless `bytes`, the value or pred tile (I, J) of the
/// blob under `key`, has the CRC32C its tile table recorded.
inline void verify_tile(std::span<const std::uint8_t> bytes,
                        std::uint32_t want, const std::string& key,
                        std::uint64_t block_row, std::uint64_t block_col,
                        bool pred) {
  const std::uint32_t got = crc32c(bytes);
  PARFW_CHECK_MSG(got == want, "checkpoint '"
                                   << key << "' " << (pred ? "pred" : "value")
                                   << " tile (" << block_row << ","
                                   << block_col
                                   << ") fails its CRC32C check (stored 0x"
                                   << std::hex << want << ", computed 0x"
                                   << got << ")");
}

namespace detail {

/// Copy a b x b tile into `dst` as one contiguous row-major block and
/// return its CRC32C, taken while it is in cache.
template <typename E>
std::uint32_t gather_tile(MatrixView<const E> tile, std::uint8_t* dst) {
  const std::size_t b = tile.rows();
  for (std::size_t r = 0; r < b; ++r)
    std::memcpy(dst + r * b * sizeof(E), &tile(r, 0), b * sizeof(E));
  return crc32c(std::span<const std::uint8_t>(dst, b * b * sizeof(E)));
}

/// The inverse of gather_tile.
template <typename E>
void scatter_tile(const std::uint8_t* src, std::size_t il, std::size_t jl,
                  std::size_t b, Matrix<E>& local) {
  const MatrixView<E> tile = local.sub(il * b, jl * b, b, b);
  for (std::size_t r = 0; r < b; ++r)
    std::memcpy(&tile(r, 0), src + r * b * sizeof(E), b * sizeof(E));
}

}  // namespace detail

/// Where in the generated schedule a checkpoint cut sits.
struct SchedulePosition {
  sched::Variant variant = sched::Variant::kBaseline;
  std::uint64_t k0 = 0;              ///< first unfinished pivot iteration
  std::uint64_t sched_op_index = 0;  ///< global step index of the cut
};

inline std::string rank_checkpoint_key(std::uint64_t k0, int world_rank) {
  return "ckpt-k" + std::to_string(k0) + "-rank-" + std::to_string(world_rank);
}
inline constexpr const char* kCommitKey = "commit";

/// Coordinated-cut commit record: written by rank 0 AFTER every rank's
/// blob for k0 is in the store. Restart trusts only committed cuts.
struct CommitRecord {
  static constexpr std::uint64_t kMagic = 0x50464b43'434d5432ull;  // "..CMT2"
  std::uint64_t magic = kMagic;
  std::uint64_t k0 = 0;
  std::uint32_t variant = 0;
  std::uint32_t world_size = 0;
  std::uint64_t n = 0;
  std::uint64_t block_size = 0;
  std::uint64_t sched_op_index = 0;
  /// CRC32C of every byte before it, zero-extended; write_commit sets it.
  std::uint64_t crc = 0;
};
static_assert(sizeof(CommitRecord) == 56,
              "no padding: the CRC must cover every byte before it");

/// The CRC32C a commit record's `crc` field must hold.
inline std::uint32_t commit_crc(const CommitRecord& rec) {
  return crc32c(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(&rec),
      offsetof(CommitRecord, crc)));
}

/// The commit record of a cut at `pos` in a `world_size`-rank run over an
/// n x n matrix in block_size blocks.
inline CommitRecord commit_record(const SchedulePosition& pos, std::uint64_t n,
                                  std::uint64_t block_size, int world_size) {
  CommitRecord rec;
  rec.k0 = pos.k0;
  rec.variant = static_cast<std::uint32_t>(pos.variant);
  rec.world_size = static_cast<std::uint32_t>(world_size);
  rec.n = n;
  rec.block_size = block_size;
  rec.sched_op_index = pos.sched_op_index;
  return rec;
}

inline void write_commit(CheckpointStore& store, CommitRecord rec) {
  rec.crc = commit_crc(rec);
  store.put(kCommitKey,
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(&rec), sizeof(rec)));
}

/// The committed cut, or nullopt when no cut was ever committed. A record
/// that is present but corrupt throws: silently treating it as absent
/// would restart a run from scratch, or tell a reader nothing was
/// published.
inline std::optional<CommitRecord> read_commit(const CheckpointStore& store) {
  auto blob = store.get(kCommitKey);
  if (!blob.has_value()) return std::nullopt;
  PARFW_CHECK_MSG(blob->size() == sizeof(CommitRecord),
                  "corrupt commit record '"
                      << kCommitKey << "': size " << blob->size()
                      << " bytes, expected " << sizeof(CommitRecord));
  CommitRecord rec;
  std::memcpy(&rec, blob->data(), sizeof(rec));
  PARFW_CHECK_MSG(rec.magic == CommitRecord::kMagic,
                  "corrupt commit record '" << kCommitKey << "' ("
                                            << blob->size()
                                            << " bytes): bad magic 0x"
                                            << std::hex << rec.magic);
  PARFW_CHECK_MSG(rec.crc == commit_crc(rec),
                  "corrupt commit record '" << kCommitKey
                                            << "': CRC32C mismatch (stored 0x"
                                            << std::hex << rec.crc
                                            << ", computed 0x"
                                            << commit_crc(rec) << ")");
  return rec;
}

/// Encode and store the blob of the rank at `me` on an n x n block-cyclic
/// layout. Tile (I, J) of the rank (global block indices) is read from
/// `values` — the rank's local matrix, or with `global` the whole matrix
/// — and, when `preds` is non-empty, its pred tile from `preds` at the
/// same place; the pred tiles follow the value tiles in the same order
/// and ext.pred_elem_size records their element width. Returns the blob
/// size in bytes.
template <typename T>
std::size_t save_rank_blob(CheckpointStore& store, std::size_t n,
                           std::size_t b, const GridSpec& grid, GridCoord me,
                           const SchedulePosition& pos,
                           MatrixView<const T> values,
                           MatrixView<const std::int64_t> preds, bool global) {
  const std::size_t nb = n / b;
  const std::size_t nlr = owned_blocks(nb, me.row, grid.rows());
  const std::size_t nlc = owned_blocks(nb, me.col, grid.cols());
  const bool with_preds = !preds.empty();

  CheckpointHeader h;
  h.elem_size = sizeof(T);
  h.n = n;
  h.next_block = pos.k0;
  h.block_size = b;

  CheckpointExt ext;
  ext.variant = static_cast<std::uint32_t>(pos.variant);
  ext.grid_rows = static_cast<std::uint32_t>(grid.rows());
  ext.grid_cols = static_cast<std::uint32_t>(grid.cols());
  ext.coord_row = me.row;
  ext.coord_col = me.col;
  ext.pred_elem_size =
      with_preds ? static_cast<std::uint32_t>(sizeof(std::int64_t)) : 0;
  ext.sched_op_index = pos.sched_op_index;
  ext.tile_count = nlr * nlc;

  const std::size_t tiles = nlr * nlc;
  const std::size_t value_tile = b * b * sizeof(T);
  const std::size_t pred_tile = b * b * ext.pred_elem_size;
  const std::size_t crc_at =
      kRankBlobHeaderBytes + tiles * sizeof(CheckpointTileRef);
  const std::size_t values_at = crc_at + kHeaderCrcBytes;
  const std::size_t preds_at = values_at + tiles * value_tile;
  const std::size_t bytes = preds_at + tiles * pred_tile;
  // Mapped directly when large, so a freed blob leaves no arena behind
  // (util/aligned_buffer.hpp).
  AlignedBuffer<std::uint8_t> blob(bytes);

  std::vector<CheckpointTileRef> refs(tiles);
  for (std::size_t il = 0; il < nlr; ++il)
    for (std::size_t jl = 0; jl < nlc; ++jl) {
      const std::size_t t = il * nlc + jl;
      CheckpointTileRef& ref = refs[t];
      ref.block_row = il * static_cast<std::size_t>(grid.rows()) +
                      static_cast<std::size_t>(me.row);
      ref.block_col = jl * static_cast<std::size_t>(grid.cols()) +
                      static_cast<std::size_t>(me.col);
      const std::size_t r0 = (global ? ref.block_row : il) * b;
      const std::size_t c0 = (global ? ref.block_col : jl) * b;
      ref.value_crc32c = detail::gather_tile(
          values.sub(r0, c0, b, b), blob.data() + values_at + t * value_tile);
      if (with_preds)
        ref.pred_crc32c = detail::gather_tile(
            preds.sub(r0, c0, b, b), blob.data() + preds_at + t * pred_tile);
    }
  std::memcpy(blob.data(), &h, sizeof(h));
  std::memcpy(blob.data() + sizeof(h), &ext, sizeof(ext));
  // copy_n, not memcpy: a rank owning no tiles has an empty table.
  std::copy_n(reinterpret_cast<const std::uint8_t*>(refs.data()),
              tiles * sizeof(CheckpointTileRef),
              blob.data() + kRankBlobHeaderBytes);
  const std::uint64_t header_crc =
      crc32c(std::span<const std::uint8_t>(blob.data(), crc_at));
  std::memcpy(blob.data() + crc_at, &header_crc, sizeof(header_crc));

  store.put(rank_checkpoint_key(pos.k0, grid.world_rank(me)),
            std::span<const std::uint8_t>(blob.data(), bytes));
  return bytes;
}

/// Snapshot this rank's local tiles + schedule position (a mid-run cut:
/// values only). Returns the blob size in bytes (for
/// TrafficStats::checkpoint_bytes).
template <typename T>
std::size_t save_rank_checkpoint(CheckpointStore& store,
                                 const BlockCyclicMatrix<T>& a,
                                 const SchedulePosition& pos) {
  return save_rank_blob<T>(store, a.n(), a.block_size(), a.grid(), a.coord(),
                           pos, a.local().view(), {}, /*global=*/false);
}

/// Restore this rank's tiles from the blob committed for iteration k0.
/// `a` must already have the run's layout (n, b, grid, coord); the blob's
/// cut, geometry and tile table are validated against it, and the header
/// CRC and every tile CRC are checked before any tile is written back. A
/// blob that also carries pred tiles (a published result) has them
/// checked, not restored.
template <typename T>
SchedulePosition load_rank_checkpoint(const CheckpointStore& store,
                                      std::uint64_t k0,
                                      BlockCyclicMatrix<T>& a) {
  const int w = a.grid().world_rank(a.coord());
  const std::string key = rank_checkpoint_key(k0, w);
  auto blob = store.get(key);
  PARFW_CHECK_MSG(blob.has_value(), "no rank checkpoint under '" << key << "'");
  RankBlobLayout l = decode_rank_blob_header(*blob, key);
  PARFW_CHECK_MSG(blob->size() == l.blob_bytes,
                  "checkpoint '" << key << "' is " << blob->size()
                                 << " bytes; its header implies "
                                 << l.blob_bytes);
  decode_rank_blob_table(l, *blob, key);
  const CheckpointHeader& h = l.header;
  const CheckpointExt& ext = l.ext;
  PARFW_CHECK_MSG(h.elem_size == sizeof(T),
                  "checkpoint '" << key << "' element size " << h.elem_size
                                 << " != requested " << sizeof(T));
  PARFW_CHECK_MSG(h.next_block == k0,
                  "checkpoint '" << key << "' holds the cut at k0="
                                 << h.next_block << ", not k0=" << k0);
  PARFW_CHECK_MSG(h.n == a.n() && h.block_size == a.block_size(),
                  "checkpoint '" << key << "' geometry mismatch (n=" << h.n
                                 << " b=" << h.block_size << ")");
  PARFW_CHECK_MSG(ext.grid_rows == static_cast<std::uint32_t>(a.grid().rows()) &&
                      ext.grid_cols ==
                          static_cast<std::uint32_t>(a.grid().cols()) &&
                      ext.coord_row == a.coord().row &&
                      ext.coord_col == a.coord().col,
                  "checkpoint '" << key
                                 << "' grid/coordinate mismatch for rank "
                                 << w);
  const auto at = [&](std::size_t t, bool is_pred) {
    return blob->data() + l.tile_slice(t, is_pred).range.offset;
  };
  for (std::size_t t = 0; t < l.tiles.size(); ++t)
    for (const bool is_pred : {false, true})
      if (!is_pred || ext.pred_elem_size != 0)
        verify_tile({at(t, is_pred), l.tile_bytes(is_pred)},
                    l.tile_slice(t, is_pred).crc32c, key, l.tiles[t].block_row,
                    l.tiles[t].block_col, is_pred);
  const std::size_t b = a.block_size(), nlc = a.local_block_cols();
  for (std::size_t t = 0; t < l.tiles.size(); ++t)
    detail::scatter_tile(at(t, false), t / nlc, t % nlc, b, a.local());

  SchedulePosition pos;
  pos.variant = static_cast<sched::Variant>(ext.variant);
  pos.k0 = h.next_block;
  pos.sched_op_index = ext.sched_op_index;
  return pos;
}

/// What one rank's share of a cut cost: blob bytes and snapshot seconds.
struct CutWrite {
  std::size_t bytes = 0;
  double seconds = 0;
};

/// One coordinated cut, entered by every rank of `world` at the same
/// schedule point: each rank snapshots its tiles under pos.k0, a barrier
/// guarantees every blob is stored, and only then does rank 0 commit the
/// cut. With no store the barrier still runs — the cut stays a
/// schedule-wide join — and nothing is written.
template <typename T>
CutWrite commit_cut(mpi::Comm& world, CheckpointStore* store,
                    const BlockCyclicMatrix<T>& a,
                    const SchedulePosition& pos) {
  CutWrite cut;
  if (store != nullptr) {
    Timer timer;
    cut.bytes = save_rank_checkpoint<T>(*store, a, pos);
    cut.seconds = timer.seconds();
  }
  world.barrier();
  if (store != nullptr && world.rank() == 0)
    write_commit(*store, commit_record(pos, a.n(), a.block_size(),
                                       world.size()));
  return cut;
}

/// Publish a completed n x n result as a served tile manifest: shard
/// `dist` (and `pred`, when non-empty) over `grid`, write every rank's
/// blob under k0 = n / b, then the commit record. The blobs are encoded on
/// `pool` when it has more than one worker (the store must then take
/// concurrent puts, as every CheckpointStore does for a cut).
template <typename T>
void publish_matrix(CheckpointStore& store, const GridSpec& grid,
                    MatrixView<const T> dist,
                    MatrixView<const std::int64_t> pred,
                    std::size_t block_size, sched::Variant variant,
                    ThreadPool* pool = nullptr) {
  const std::size_t n = dist.rows();
  PARFW_CHECK_MSG(n == dist.cols(), "publish needs a square matrix");
  PARFW_CHECK_MSG(block_size > 0 && n % block_size == 0,
                  "n=" << n << " is not a multiple of the serving block size "
                       << block_size);
  PARFW_CHECK_MSG(pred.empty() || (pred.rows() == n && pred.cols() == n),
                  "pred shape does not match the value matrix");
  SchedulePosition pos;
  pos.variant = variant;
  pos.k0 = n / block_size;  // every pivot round done: a completed solve
  const auto put = [&](std::size_t w) {
    (void)save_rank_blob<T>(store, n, block_size, grid,
                            grid.coord_of(static_cast<int>(w)), pos, dist,
                            pred, /*global=*/true);
  };
  const auto ranks = static_cast<std::size_t>(grid.size());
  if (pool != nullptr && pool->size() > 1)
    pool->parallel_for(ranks, put);
  else
    for (std::size_t w = 0; w < ranks; ++w) put(w);
  write_commit(store, commit_record(pos, n, block_size, grid.size()));
}

}  // namespace parfw::dist
