// Distributed checkpoint/restart (DESIGN.md "Resilience").
//
// At a coordinated kCheckpoint cut (a barrier in dist::parallel_fw) every
// rank writes one v2 blob — its BlockCyclicMatrix local tiles plus the
// schedule position (variant, k0, sched op index) — to the run's
// CheckpointStore under a key derived from (k0, world rank). Once ALL
// ranks' blobs are stored (second barrier), rank 0 writes a small commit
// record naming k0; a checkpoint without a commit record does not exist
// as far as restart is concerned, so a crash mid-snapshot falls back to
// the previous committed cut (whose blobs live under different keys).
//
// Restart (driver.hpp supervision loop): every rank reads the committed
// k0's blob back into a freshly laid-out BlockCyclicMatrix and re-enters
// parallel_fw_resume at start_k = k0. The resumed schedule re-derives the
// panel buffers from the tiles (sched::ScheduleParams::start_k), so tiles
// are the ONLY state a blob needs to carry.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/checkpoint_store.hpp"
#include "dist/block_cyclic.hpp"
#include "sched/variant.hpp"

namespace parfw::dist {

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

inline void write_commit(CheckpointStore& store, const CommitRecord& rec) {
  store.put(kCommitKey,
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(&rec), sizeof(rec)));
}

inline std::optional<CommitRecord> read_commit(const CheckpointStore& store) {
  auto blob = store.get(kCommitKey);
  if (!blob.has_value() || blob->size() != sizeof(CommitRecord))
    return std::nullopt;
  CommitRecord rec;
  std::memcpy(&rec, blob->data(), sizeof(rec));
  if (rec.magic != CommitRecord::kMagic) return std::nullopt;
  return rec;
}

/// Snapshot this rank's local tiles + schedule position. Returns the blob
/// size in bytes (for TrafficStats::checkpoint_bytes). When `pred` is set
/// (a paths run) its local tiles follow the value payload row-for-row and
/// ext.pred_elem_size records their element width — the checkpoint-v2
/// pred extension. Value-only blobs are byte-identical to what older
/// producers wrote.
template <typename T>
std::size_t save_rank_checkpoint(
    CheckpointStore& store, const BlockCyclicMatrix<T>& a,
    const SchedulePosition& pos,
    const BlockCyclicMatrix<std::int64_t>* pred = nullptr) {
  const std::size_t b = a.block_size();
  const std::size_t nlr = a.local_block_rows(), nlc = a.local_block_cols();

  CheckpointHeader h;
  h.elem_size = sizeof(T);
  h.n = a.n();
  h.next_block = pos.k0;
  h.block_size = b;

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

  std::ostringstream out(std::ios::binary);
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  out.write(reinterpret_cast<const char*>(&ext), sizeof(ext));
  for (std::size_t il = 0; il < nlr; ++il)
    for (std::size_t jl = 0; jl < nlc; ++jl) {
      CheckpointTileRef ref{a.global_row(il), a.global_col(jl)};
      out.write(reinterpret_cast<const char*>(&ref), sizeof(ref));
    }
  const Matrix<T>& local = a.local();
  auto lv = local.view();
  for (std::size_t i = 0; i < lv.rows(); ++i)
    out.write(reinterpret_cast<const char*>(lv.data() + i * lv.ld()),
              static_cast<std::streamsize>(lv.cols() * sizeof(T)));
  if (pred != nullptr) {
    PARFW_CHECK_MSG(pred->block_size() == b && pred->n() == a.n(),
                    "pred layout does not match the value matrix");
    auto pv = pred->local().view();
    for (std::size_t i = 0; i < pv.rows(); ++i)
      out.write(reinterpret_cast<const char*>(pv.data() + i * pv.ld()),
                static_cast<std::streamsize>(pv.cols() *
                                             sizeof(std::int64_t)));
  }
  PARFW_CHECK_MSG(out.good(), "rank checkpoint serialisation failed");

  const int w = a.grid().world_rank(a.coord());
  return put_blob(store, rank_checkpoint_key(pos.k0, w), std::move(out).str());
}

/// Restore this rank's tiles from the blob committed for iteration k0.
/// `a` must already have the run's layout (n, b, grid, coord); the blob's
/// geometry and tile manifest are validated against it. Pass `pred` to
/// restore a paths run: the blob must then carry the pred payload
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
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(blob->data()), blob->size()),
      std::ios::binary);

  CheckpointExtV2 ext;
  const CheckpointHeader h = read_checkpoint_header<T>(in, ext);
  PARFW_CHECK_MSG(ext.tile_count > 0,
                  "not a per-rank tile checkpoint: '" << key << "'");
  PARFW_CHECK_MSG(h.n == a.n() && h.block_size == a.block_size(),
                  "checkpoint geometry mismatch (n=" << h.n << " b="
                                                     << h.block_size << ")");
  PARFW_CHECK_MSG(ext.grid_rows == static_cast<std::uint32_t>(a.grid().rows()) &&
                      ext.grid_cols ==
                          static_cast<std::uint32_t>(a.grid().cols()) &&
                      ext.coord_row == a.coord().row &&
                      ext.coord_col == a.coord().col,
                  "checkpoint grid/coordinate mismatch for rank " << w);

  const std::size_t nlr = a.local_block_rows(), nlc = a.local_block_cols();
  PARFW_CHECK_MSG(ext.tile_count == nlr * nlc, "tile manifest length mismatch");
  for (std::size_t il = 0; il < nlr; ++il)
    for (std::size_t jl = 0; jl < nlc; ++jl) {
      CheckpointTileRef ref;
      in.read(reinterpret_cast<char*>(&ref), sizeof(ref));
      PARFW_CHECK_MSG(in.good() && ref.block_row == a.global_row(il) &&
                          ref.block_col == a.global_col(jl),
                      "tile manifest entry mismatch at (" << il << "," << jl
                                                          << ")");
    }
  auto lv = a.local().view();
  for (std::size_t i = 0; i < lv.rows(); ++i)
    in.read(reinterpret_cast<char*>(lv.data() + i * lv.ld()),
            static_cast<std::streamsize>(lv.cols() * sizeof(T)));
  PARFW_CHECK_MSG(in.good(), "rank checkpoint payload truncated");
  if (pred != nullptr) {
    PARFW_CHECK_MSG(ext.pred_elem_size == sizeof(std::int64_t),
                    "checkpoint '" << key << "' carries no pred payload "
                                   << "(pred_elem_size="
                                   << ext.pred_elem_size << ")");
    PARFW_CHECK_MSG(pred->block_size() == a.block_size() &&
                        pred->n() == a.n(),
                    "pred layout does not match the value matrix");
    auto pv = pred->local().view();
    for (std::size_t i = 0; i < pv.rows(); ++i)
      in.read(reinterpret_cast<char*>(pv.data() + i * pv.ld()),
              static_cast<std::streamsize>(pv.cols() * sizeof(std::int64_t)));
    PARFW_CHECK_MSG(in.good(), "rank checkpoint pred payload truncated");
  }

  SchedulePosition pos;
  pos.variant = static_cast<sched::Variant>(ext.variant);
  pos.k0 = h.next_block;
  pos.sched_op_index = ext.sched_op_index;
  return pos;
}

}  // namespace parfw::dist
