// Checkpoint-v2 codec and the coordinated-cut commit protocol (DESIGN.md
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
// k0 = nb. A single-node run is the 1x1 grid, whose packed local matrix
// is the row-major matrix.
//
// Rank blob layout (native byte order), v2:
//
//   [0, 40)    CheckpointHeader   magic, version, elem_size, n,
//                                 next_block (= k0), block_size
//   [40, 80)   CheckpointExtV2    variant, grid shape, grid coordinate,
//                                 pred_elem_size, sched_op_index,
//                                 tile_count
//   tile_count x CheckpointTileRef  global (block_row, block_col) of each
//                                 local tile, row-major local order
//   value rows                    the packed local matrix, row-major:
//                                 (local_block_rows * b) rows of
//                                 (local_block_cols * b) elements
//   pred rows                     present iff pred_elem_size != 0: the
//                                 local predecessor matrix, same shape
//
// Restart (driver.hpp supervision loop): every rank reads the committed
// k0's blob back into a freshly laid-out BlockCyclicMatrix and re-enters
// parallel_fw_resume at start_k = k0. The resumed schedule re-derives the
// panel buffers from the tiles (sched::ScheduleParams::start_k), so tiles
// are the ONLY state a blob needs to carry.
#pragma once

#include <algorithm>
#include <bit>
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
#include "util/timer.hpp"

namespace parfw::dist {

struct CheckpointHeader {
  static constexpr std::uint64_t kMagic = 0x50464b43'50415246ull;  // "PARFWCKP"
  static constexpr std::uint32_t kVersion = 2;
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t elem_size = 0;
  std::uint64_t n = 0;
  std::uint64_t next_block = 0;  ///< first UNfinished block iteration (k0)
  std::uint64_t block_size = 0;
};

/// v2 extension, immediately after the header.
struct CheckpointExtV2 {
  std::uint32_t variant = 0;     ///< sched::Variant of the producing run
  std::uint32_t grid_rows = 1;   ///< process grid shape
  std::uint32_t grid_cols = 1;
  std::int32_t coord_row = 0;    ///< producing rank's grid coordinate
  std::int32_t coord_col = 0;
  /// sizeof one predecessor id when the blob carries a pred payload after
  /// the value payload (paths runs); 0 = values only. Occupies the v2
  /// format's former reserved word, which every existing producer wrote
  /// as 0 — old blobs load as "no predecessors" with no format bump.
  std::uint32_t pred_elem_size = 0;
  std::uint64_t sched_op_index = 0;  ///< schedule position within the run
  std::uint64_t tile_count = 0;      ///< tile manifest entries
};
static_assert(sizeof(CheckpointHeader) == 40 && sizeof(CheckpointExtV2) == 40,
              "checkpoint blob layout is part of the on-disk format");

/// One manifest entry: the global block coordinate of a local tile, in
/// the row-major order the tiles appear in the payload.
struct CheckpointTileRef {
  std::uint64_t block_row = 0;
  std::uint64_t block_col = 0;
};

inline constexpr std::size_t kRankBlobHeaderBytes =
    sizeof(CheckpointHeader) + sizeof(CheckpointExtV2);

/// A validated rank-blob header and the byte layout it implies.
struct RankBlobLayout {
  CheckpointHeader header;
  CheckpointExtV2 ext;
  std::uint64_t local_block_rows = 0, local_block_cols = 0;
  std::uint64_t payload_offset = 0;       ///< first value row
  std::uint64_t pred_payload_offset = 0;  ///< first pred row (= end of values)
  std::uint64_t blob_bytes = 0;           ///< total size the header implies

  /// The b byte ranges (one per tile row) of global tile (I, J) — which
  /// this rank must own — in its value or pred payload, into `out`
  /// (cleared first).
  void tile_ranges(std::uint64_t block_row, std::uint64_t block_col,
                   bool pred, std::vector<ByteRange>& out) const {
    PARFW_DCHECK(block_row % ext.grid_rows ==
                     static_cast<std::uint64_t>(ext.coord_row) &&
                 block_col % ext.grid_cols ==
                     static_cast<std::uint64_t>(ext.coord_col));
    const std::uint64_t b = header.block_size;
    const std::uint64_t il = block_row / ext.grid_rows;
    const std::uint64_t jl = block_col / ext.grid_cols;
    const std::uint64_t row_elems = local_block_cols * b;
    const std::uint64_t es = pred ? ext.pred_elem_size : header.elem_size;
    const std::uint64_t base = pred ? pred_payload_offset : payload_offset;
    out.clear();
    out.reserve(static_cast<std::size_t>(b));
    for (std::uint64_t r = 0; r < b; ++r)
      out.push_back(ByteRange{base + ((il * b + r) * row_elems + jl * b) * es,
                              b * es});
  }
};

/// Decode and validate the first kRankBlobHeaderBytes of the rank blob
/// stored under `key`. Blobs are outside input: every field is checked
/// (magic, version, element widths, geometry, grid coordinate, manifest
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
  const CheckpointExtV2& e = l.ext;
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
                  "checkpoint '" << key << "' tile manifest length "
                                 << e.tile_count << " != " << tiles
                                 << " tiles its coordinate owns");
  const std::uint64_t elems = mul(l.local_block_rows * h.block_size,
                                  l.local_block_cols * h.block_size);
  l.payload_offset =
      add(kRankBlobHeaderBytes, mul(tiles, sizeof(CheckpointTileRef)));
  l.pred_payload_offset = add(l.payload_offset, mul(elems, h.elem_size));
  l.blob_bytes = add(l.pred_payload_offset, mul(elems, e.pred_elem_size));
  return l;
}

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
  static constexpr std::uint64_t kMagic = 0x50464b43'434d5431ull;  // "..CMT1"
  std::uint64_t magic = kMagic;
  std::uint64_t k0 = 0;
  std::uint32_t variant = 0;
  std::uint32_t world_size = 0;
  std::uint64_t n = 0;
  std::uint64_t block_size = 0;
  std::uint64_t sched_op_index = 0;
};

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

inline void write_commit(CheckpointStore& store, const CommitRecord& rec) {
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
  return rec;
}

/// Snapshot this rank's local tiles + schedule position. Returns the blob
/// size in bytes (for TrafficStats::checkpoint_bytes). When `pred` is set
/// (a paths run) its local tiles follow the value payload row-for-row and
/// ext.pred_elem_size records their element width.
template <typename T>
std::size_t save_rank_checkpoint(
    CheckpointStore& store, const BlockCyclicMatrix<T>& a,
    const SchedulePosition& pos,
    const BlockCyclicMatrix<std::int64_t>* pred = nullptr) {
  const std::size_t nlr = a.local_block_rows(), nlc = a.local_block_cols();

  CheckpointHeader h;
  h.elem_size = sizeof(T);
  h.n = a.n();
  h.next_block = pos.k0;
  h.block_size = a.block_size();

  CheckpointExtV2 ext;
  ext.variant = static_cast<std::uint32_t>(pos.variant);
  ext.grid_rows = static_cast<std::uint32_t>(a.grid().rows());
  ext.grid_cols = static_cast<std::uint32_t>(a.grid().cols());
  ext.coord_row = a.coord().row;
  ext.coord_col = a.coord().col;
  ext.pred_elem_size =
      pred != nullptr ? static_cast<std::uint32_t>(sizeof(std::int64_t)) : 0;
  ext.sched_op_index = pos.sched_op_index;
  ext.tile_count = nlr * nlc;

  const Matrix<T>& local = a.local();
  std::size_t bytes = kRankBlobHeaderBytes +
                      ext.tile_count * sizeof(CheckpointTileRef) +
                      local.size() * sizeof(T);
  if (pred != nullptr) {
    PARFW_CHECK_MSG(pred->block_size() == a.block_size() && pred->n() == a.n(),
                    "pred layout does not match the value matrix");
    bytes += pred->local().size() * sizeof(std::int64_t);
  }
  std::vector<std::uint8_t> blob;
  blob.reserve(bytes);
  auto append = [&blob](const void* p, std::size_t len) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    blob.insert(blob.end(), c, c + len);
  };
  append(&h, sizeof(h));
  append(&ext, sizeof(ext));
  for (std::size_t il = 0; il < nlr; ++il)
    for (std::size_t jl = 0; jl < nlc; ++jl) {
      const CheckpointTileRef ref{a.global_row(il), a.global_col(jl)};
      append(&ref, sizeof(ref));
    }
  append(local.data(), local.size() * sizeof(T));
  if (pred != nullptr)
    append(pred->local().data(), pred->local().size() * sizeof(std::int64_t));

  const int w = a.grid().world_rank(a.coord());
  store.put(rank_checkpoint_key(pos.k0, w), blob);
  return blob.size();
}

/// Restore this rank's tiles from the blob committed for iteration k0.
/// `a` must already have the run's layout (n, b, grid, coord); the blob's
/// cut, geometry and tile manifest are validated against it. Pass `pred`
/// to restore a paths run: the blob must then carry the pred payload
/// (ext.pred_elem_size = 8) — a resumed paths run cannot reconstruct
/// predecessors from distances, so a value-only blob is an error. The
/// reverse (blob has preds, caller wants values only) is allowed; the
/// pred payload trails the value rows and is simply not read.
template <typename T>
SchedulePosition load_rank_checkpoint(
    const CheckpointStore& store, std::uint64_t k0, BlockCyclicMatrix<T>& a,
    BlockCyclicMatrix<std::int64_t>* pred = nullptr) {
  const int w = a.grid().world_rank(a.coord());
  const std::string key = rank_checkpoint_key(k0, w);
  auto blob = store.get(key);
  PARFW_CHECK_MSG(blob.has_value(), "no rank checkpoint under '" << key << "'");
  const RankBlobLayout l = decode_rank_blob_header(*blob, key);
  const CheckpointHeader& h = l.header;
  const CheckpointExtV2& ext = l.ext;
  PARFW_CHECK_MSG(h.elem_size == sizeof(T),
                  "checkpoint element size " << h.elem_size << " != requested "
                                             << sizeof(T));
  PARFW_CHECK_MSG(h.next_block == k0,
                  "checkpoint '" << key << "' holds the cut at k0="
                                 << h.next_block << ", not k0=" << k0);
  PARFW_CHECK_MSG(h.n == a.n() && h.block_size == a.block_size(),
                  "checkpoint geometry mismatch (n=" << h.n << " b="
                                                     << h.block_size << ")");
  PARFW_CHECK_MSG(ext.grid_rows == static_cast<std::uint32_t>(a.grid().rows()) &&
                      ext.grid_cols ==
                          static_cast<std::uint32_t>(a.grid().cols()) &&
                      ext.coord_row == a.coord().row &&
                      ext.coord_col == a.coord().col,
                  "checkpoint grid/coordinate mismatch for rank " << w);
  PARFW_CHECK_MSG(blob->size() == l.blob_bytes,
                  "checkpoint '" << key << "' is " << blob->size()
                                 << " bytes; its header implies "
                                 << l.blob_bytes);

  const std::uint8_t* p = blob->data() + kRankBlobHeaderBytes;
  for (std::size_t il = 0; il < a.local_block_rows(); ++il)
    for (std::size_t jl = 0; jl < a.local_block_cols(); ++jl) {
      CheckpointTileRef ref;
      std::memcpy(&ref, p, sizeof(ref));
      p += sizeof(ref);
      PARFW_CHECK_MSG(ref.block_row == a.global_row(il) &&
                          ref.block_col == a.global_col(jl),
                      "tile manifest entry mismatch at (" << il << "," << jl
                                                          << ")");
    }
  // copy_n, not memcpy: a rank owning no tiles has a null local().data().
  std::copy_n(blob->data() + l.payload_offset, a.local().size() * sizeof(T),
              reinterpret_cast<std::uint8_t*>(a.local().data()));
  if (pred != nullptr) {
    PARFW_CHECK_MSG(ext.pred_elem_size == sizeof(std::int64_t),
                    "checkpoint '" << key << "' carries no pred payload "
                                   << "(pred_elem_size="
                                   << ext.pred_elem_size << ")");
    PARFW_CHECK_MSG(pred->block_size() == a.block_size() &&
                        pred->n() == a.n(),
                    "pred layout does not match the value matrix");
    std::copy_n(blob->data() + l.pred_payload_offset,
                pred->local().size() * sizeof(std::int64_t),
                reinterpret_cast<std::uint8_t*>(pred->local().data()));
  }

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
                    const BlockCyclicMatrix<T>& a, const SchedulePosition& pos,
                    const BlockCyclicMatrix<std::int64_t>* pred) {
  CutWrite cut;
  if (store != nullptr) {
    Timer timer;
    cut.bytes = save_rank_checkpoint<T>(*store, a, pos, pred);
    cut.seconds = timer.seconds();
  }
  world.barrier();
  if (store != nullptr && world.rank() == 0)
    write_commit(*store, commit_record(pos, a.n(), a.block_size(),
                                       world.size()));
  return cut;
}

}  // namespace parfw::dist
