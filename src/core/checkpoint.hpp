// Checkpoint/restart for long APSP runs.
//
// A 1.66M-vertex FW run on 64 Summit nodes takes hours; leadership
// systems require applications to survive node failures. Blocked FW is
// naturally checkpointable: after iteration k the matrix state fully
// determines the remaining work, so a checkpoint is (header, k, matrix)
// and restart is "run the block loop from k".
//
// Format v2: a fixed 40-byte header (magic, version, element size, n,
// next block iteration, block size) followed by a 40-byte extension
// (schedule position: variant + sched op index; distribution: grid shape,
// grid coordinate, per-rank tile manifest length), the tile manifest
// (tile_count pairs of global block coordinates) and the raw row-major
// matrix payload — the full matrix for single-node blobs (tile_count = 0),
// a rank's packed local matrix for distributed blobs (dist/checkpoint.hpp).
// Only v2 loads; the loaders check every size the header claims against
// the bytes actually present before allocating.
//
// Blobs travel through any std::iostream or, preferably, through a
// CheckpointStore key (checkpoint_store.hpp) — the sink/source the
// distributed resilience layer and the examples use.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "core/blocked_fw.hpp"
#include "core/checkpoint_store.hpp"
#include "util/matrix.hpp"

namespace parfw {

struct CheckpointHeader {
  static constexpr std::uint64_t kMagic = 0x50464b43'50415246ull;  // "PARFWCKP"
  static constexpr std::uint32_t kVersion = 2;
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t elem_size = 0;
  std::uint64_t n = 0;
  std::uint64_t next_block = 0;  ///< first UNfinished block iteration
  std::uint64_t block_size = 0;
};

/// v2 extension, immediately after the header. Single-node blobs leave
/// everything at the defaults (1x1 "grid", full matrix, no manifest).
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
  std::uint64_t tile_count = 0;  ///< manifest entries (0 = full matrix)
};
static_assert(sizeof(CheckpointHeader) == 40 && sizeof(CheckpointExtV2) == 40,
              "checkpoint blob layout is part of the on-disk format");

/// One manifest entry: the global block coordinate of a local tile, in
/// the row-major order the tiles appear in the payload.
struct CheckpointTileRef {
  std::uint64_t block_row = 0;
  std::uint64_t block_col = 0;
};

/// Write a v2 checkpoint of an in-progress (or finished) single-node
/// blocked FW run: full matrix, empty manifest.
template <typename T>
void save_checkpoint(std::ostream& out, MatrixView<const T> dist,
                     std::size_t next_block, std::size_t block_size,
                     const CheckpointExtV2& ext = {}) {
  PARFW_CHECK(dist.rows() == dist.cols());
  CheckpointHeader h;
  h.elem_size = sizeof(T);
  h.n = dist.rows();
  h.next_block = next_block;
  h.block_size = block_size;
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  CheckpointExtV2 e = ext;
  e.tile_count = 0;
  out.write(reinterpret_cast<const char*>(&e), sizeof(e));
  for (std::size_t i = 0; i < dist.rows(); ++i)
    out.write(reinterpret_cast<const char*>(dist.data() + i * dist.ld()),
              static_cast<std::streamsize>(dist.cols() * sizeof(T)));
  PARFW_CHECK_MSG(out.good(), "checkpoint write failed");
}

/// Result of load_checkpoint: the matrix plus where to resume.
template <typename T>
struct LoadedCheckpoint {
  Matrix<T> dist;
  std::size_t next_block = 0;
  std::size_t block_size = 0;
  CheckpointExtV2 ext{};
};

/// Read the header and extension and validate magic/version/element
/// size. Returns the header and fills `ext`.
template <typename T>
CheckpointHeader read_checkpoint_header(std::istream& in,
                                        CheckpointExtV2& ext) {
  CheckpointHeader h;
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  PARFW_CHECK_MSG(in.good() && h.magic == CheckpointHeader::kMagic,
                  "not a parallelfw checkpoint");
  PARFW_CHECK_MSG(h.version == CheckpointHeader::kVersion,
                  "unsupported checkpoint version " << h.version);
  PARFW_CHECK_MSG(h.elem_size == sizeof(T),
                  "checkpoint element size " << h.elem_size
                                             << " != requested " << sizeof(T));
  in.read(reinterpret_cast<char*>(&ext), sizeof(ext));
  PARFW_CHECK_MSG(in.good(), "checkpoint extension truncated");
  return h;
}

/// Load a single-matrix checkpoint (v2 with an empty manifest).
/// Distributed per-rank blobs load through dist::load_rank_checkpoint.
template <typename T>
LoadedCheckpoint<T> load_checkpoint(std::istream& in) {
  LoadedCheckpoint<T> out;
  const CheckpointHeader h = read_checkpoint_header<T>(in, out.ext);
  PARFW_CHECK_MSG(out.ext.tile_count == 0,
                  "per-rank tile checkpoint; use dist::load_rank_checkpoint");
  PARFW_CHECK_MSG(h.block_size > 0, "checkpoint block size is 0");
  // The header is untrusted: n*n*sizeof(T) must neither wrap nor exceed
  // the payload actually present, or Matrix would be sized from a wrapped
  // (or absurd) product.
  const std::istream::pos_type here = in.tellg();
  PARFW_CHECK_MSG(here != std::istream::pos_type(-1),
                  "checkpoint stream is not seekable");
  in.seekg(0, std::ios::end);
  const auto left = static_cast<std::uint64_t>(in.tellg() - here);
  in.seekg(here);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  PARFW_CHECK_MSG(h.n == 0 || (h.n <= kMax / h.n &&
                               h.n * h.n <= kMax / sizeof(T) &&
                               h.n * h.n * sizeof(T) <= left),
                  "checkpoint claims n = " << h.n << ", more than its "
                                           << left << "-byte payload holds");
  out.dist = Matrix<T>(static_cast<std::size_t>(h.n),
                       static_cast<std::size_t>(h.n));
  in.read(reinterpret_cast<char*>(out.dist.data()),
          static_cast<std::streamsize>(h.n * h.n * sizeof(T)));
  PARFW_CHECK_MSG(in.good(), "checkpoint payload truncated");
  out.next_block = static_cast<std::size_t>(h.next_block);
  out.block_size = static_cast<std::size_t>(h.block_size);
  return out;
}

// --- CheckpointStore plumbing --------------------------------------------

/// Store a serialised blob under `key`. Returns the blob size in bytes.
inline std::size_t put_blob(CheckpointStore& store, const std::string& key,
                            const std::string& blob) {
  store.put(key, std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(blob.data()),
                     blob.size()));
  return blob.size();
}

/// Save a single-matrix checkpoint into a store.
template <typename T>
std::size_t save_checkpoint(CheckpointStore& store, const std::string& key,
                            MatrixView<const T> dist, std::size_t next_block,
                            std::size_t block_size,
                            const CheckpointExtV2& ext = {}) {
  std::ostringstream out(std::ios::binary);
  save_checkpoint<T>(out, dist, next_block, block_size, ext);
  return put_blob(store, key, std::move(out).str());
}

/// Load a single-matrix checkpoint from a store key.
template <typename T>
LoadedCheckpoint<T> load_checkpoint(const CheckpointStore& store,
                                    const std::string& key) {
  auto blob = store.get(key);
  PARFW_CHECK_MSG(blob.has_value(), "no checkpoint under key '" << key << "'");
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(blob->data()), blob->size()),
      std::ios::binary);
  return load_checkpoint<T>(in);
}

}  // namespace parfw
