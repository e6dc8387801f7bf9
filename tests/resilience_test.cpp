// Resilience subsystem tests (DESIGN.md "Resilience"): CheckpointStore
// round-trips and range reads, the checkpoint v3 format, hostile-header and
// whole-blob corruption rejection, crash-restart
// bit-identity for every ParallelFw variant on both placements, retry
// completion under seeded message drops, and the parfw::solve front door.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "core/floyd_warshall.hpp"
#include "dist/checkpoint.hpp"
#include "dist/driver.hpp"
#include "dist/solve.hpp"
#include "graph/generators.hpp"
#include "sched/trace.hpp"
#include "serve/path_service.hpp"
#include "serve/publish.hpp"
#include "telemetry/metrics.hpp"
#include "util/crc32c.hpp"

#include "oracles.hpp"

namespace parfw {
namespace {

using S = MinPlus<float>;

// --- CheckpointStore ----------------------------------------------------------

TEST(CheckpointStore, MemoryRoundTrip) {
  MemoryCheckpointStore store;
  const std::vector<std::uint8_t> blob = {1, 2, 3, 255, 0, 42};
  store.put("alpha", blob);
  store.put("beta", std::vector<std::uint8_t>{9});

  const auto got = store.get("alpha");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, blob);
  EXPECT_FALSE(store.get("missing").has_value());

  EXPECT_EQ(store.keys(), (std::vector<std::string>{"alpha", "beta"}));
  store.erase("alpha");
  EXPECT_FALSE(store.get("alpha").has_value());
  EXPECT_EQ(store.keys(), (std::vector<std::string>{"beta"}));

  // Overwrite replaces, not appends.
  store.put("beta", blob);
  EXPECT_EQ(*store.get("beta"), blob);
}

TEST(CheckpointStore, FileRoundTripAndPersistence) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "parfw_resilience_store_test";
  std::filesystem::remove_all(dir);
  {
    FileCheckpointStore store(dir);
    store.put("ckpt-k2-rank-0", std::vector<std::uint8_t>{7, 7, 7});
    store.put("commit", std::vector<std::uint8_t>{1});
    EXPECT_EQ(store.keys(),
              (std::vector<std::string>{"ckpt-k2-rank-0", "commit"}));
  }
  {
    // A fresh instance over the same directory sees the previous blobs —
    // this is the restart-after-process-death story.
    FileCheckpointStore store(dir);
    const auto got = store.get("ckpt-k2-rank-0");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, (std::vector<std::uint8_t>{7, 7, 7}));
    store.erase("commit");
    EXPECT_FALSE(store.get("commit").has_value());
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, FileStoreRejectsPathTraversalKeys) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "parfw_resilience_store_keys";
  std::filesystem::remove_all(dir);
  FileCheckpointStore store(dir);
  EXPECT_THROW(store.put("../escape", std::vector<std::uint8_t>{1}),
               std::exception);
  EXPECT_THROW(store.put("a/b", std::vector<std::uint8_t>{1}), std::exception);
  std::filesystem::remove_all(dir);
}

/// A store that overrides only the four required calls, so get_ranges is
/// the base class's whole-blob fallback.
class WholeBlobStore final : public CheckpointStore {
 public:
  void put(const std::string& key,
           std::span<const std::uint8_t> blob) override {
    inner_.put(key, blob);
  }
  std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) const override {
    return inner_.get(key);
  }
  void erase(const std::string& key) override { inner_.erase(key); }
  std::vector<std::string> keys() const override { return inner_.keys(); }

 private:
  MemoryCheckpointStore inner_;
};

bool read_range(const CheckpointStore& store, const std::string& key,
                ByteRange r, std::uint8_t* out) {
  return store.get_ranges(key, std::span<const ByteRange>(&r, 1), out);
}

TEST(CheckpointStore, RangeChecksDoNotWrap) {
  // offset + length wraps to 4 here, which an unguarded "end <= size"
  // test accepts before copying from 2^64 - 3 bytes into the blob. Every
  // get_ranges implementation must refuse it, and ranges that end exactly
  // at the blob's end still read.
  const auto dir = std::filesystem::temp_directory_path() /
                   "parfw_resilience_range_wrap";
  std::filesystem::remove_all(dir);
  WholeBlobStore whole;
  MemoryCheckpointStore memory;
  FileCheckpointStore file(dir);
  const std::vector<std::uint8_t> blob = {1, 2, 3, 4, 5, 6, 7, 8};
  for (CheckpointStore* store :
       std::initializer_list<CheckpointStore*>{&whole, &memory, &file}) {
    store->put("k", blob);
    std::uint8_t out[8] = {};
    const std::uint64_t near_max =
        std::numeric_limits<std::uint64_t>::max() - 3;
    EXPECT_THROW(read_range(*store, "k", {near_max, 8}, out), check_error);
    EXPECT_THROW(read_range(*store, "k", {9, 0}, out), check_error);
    EXPECT_THROW(read_range(*store, "k", {4, 5}, out), check_error);
    ASSERT_TRUE(read_range(*store, "k", {5, 3}, out));
    EXPECT_EQ(out[0], 6);
    EXPECT_EQ(out[2], 8);
    EXPECT_TRUE(read_range(*store, "k", {8, 0}, out));
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, FileStoreRangeReadsSeeReplacedAndErasedBlobs) {
  // get_ranges reads through a cached descriptor; put and erase of the
  // same key must drop it, so a reader never sees the replaced file.
  const auto dir = std::filesystem::temp_directory_path() /
                   "parfw_resilience_store_handles";
  std::filesystem::remove_all(dir);
  FileCheckpointStore store(dir);
  std::uint8_t out[2] = {};
  EXPECT_FALSE(read_range(store, "k", {0, 1}, out));
  store.put("k", std::vector<std::uint8_t>{1, 2, 3, 4});
  ASSERT_TRUE(read_range(store, "k", {1, 2}, out));
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  store.put("k", std::vector<std::uint8_t>{9, 8, 7, 6, 5});
  ASSERT_TRUE(read_range(store, "k", {1, 2}, out));
  EXPECT_EQ(out[0], 8);
  EXPECT_EQ(out[1], 7);
  ASSERT_TRUE(read_range(store, "k", {4, 1}, out));  // the new blob's size
  EXPECT_EQ(out[0], 5);
  store.erase("k");
  EXPECT_FALSE(read_range(store, "k", {0, 1}, out));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, FileStoreServesMoreBlobsThanItKeepsOpen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "parfw_resilience_store_many";
  std::filesystem::remove_all(dir);
  FileCheckpointStore store(dir);
  const std::size_t blobs = 3 * FileCheckpointStore::kMaxOpenBlobs + 1;
  for (std::size_t i = 0; i < blobs; ++i)
    store.put("blob-" + std::to_string(i),
              std::vector<std::uint8_t>{static_cast<std::uint8_t>(i),
                                        static_cast<std::uint8_t>(i + 1)});
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < blobs; ++i) {
      std::uint8_t out = 0;
      ASSERT_TRUE(read_range(store, "blob-" + std::to_string(i), {1, 1}, &out));
      EXPECT_EQ(out, static_cast<std::uint8_t>(i + 1)) << "blob " << i;
    }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, FileStoreConcurrentRangeReadsDuringPut) {
  // Four readers share one key's cached descriptor while a writer replaces
  // another key (which drops that key's descriptor under the same lock).
  const auto dir = std::filesystem::temp_directory_path() /
                   "parfw_resilience_store_threads";
  std::filesystem::remove_all(dir);
  FileCheckpointStore store(dir);
  std::vector<std::uint8_t> hot(4096);
  for (std::size_t i = 0; i < hot.size(); ++i)
    hot[i] = static_cast<std::uint8_t>(i * 7);
  store.put("hot", hot);
  std::vector<std::thread> readers;
  std::vector<int> bad(4, 0);
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&store, &hot, &bad, t] {
      std::uint8_t out[64];
      for (int it = 0; it < 300; ++it) {
        const auto off = static_cast<std::uint64_t>((it * 61 + t) % 4000);
        if (!read_range(store, "hot", {off, sizeof(out)}, out) ||
            std::memcmp(out, hot.data() + off, sizeof(out)) != 0)
          ++bad[static_cast<std::size_t>(t)];
      }
    });
  for (int it = 0; it < 100; ++it) {
    store.put("cold",
              std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(it)));
    std::uint8_t out = 0;
    EXPECT_TRUE(read_range(store, "cold", {63, 1}, &out));
    EXPECT_EQ(out, static_cast<std::uint8_t>(it));
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(bad, std::vector<int>(4, 0));
  std::filesystem::remove_all(dir);
}

// --- Checkpoint format: the v3 rank-blob codec -----------------------------

/// Rank (0,1) — world rank 1 — of a 2x2 grid over an 8x8 matrix in 2x2
/// blocks (4 block rows: the rank owns 2x2 tiles), value M(i,j) = 100i + j
/// and pred P(i,j) = 1000 + 10i + j, saved as the k0 = 3 cut of an async
/// run at schedule op 41.
struct SampleRankBlob {
  static constexpr std::size_t n = 8, b = 2;
  dist::GridSpec grid = dist::GridSpec::row_major(2, 2);
  dist::GridCoord me{0, 1};
  dist::SchedulePosition pos{sched::Variant::kAsync, 3, 41};
  Matrix<float> values{n, n};
  Matrix<std::int64_t> preds{n, n};
  std::vector<std::uint8_t> bytes;

  SampleRankBlob() {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        values(i, j) = static_cast<float>(100 * i + j);
        preds(i, j) = static_cast<std::int64_t>(1000 + 10 * i + j);
      }
    MemoryCheckpointStore store;
    const std::size_t saved = dist::save_rank_blob<float>(
        store, n, b, grid, me, pos, values.view(), preds.view(),
        /*global=*/true);
    bytes = *store.get(key());
    EXPECT_EQ(saved, bytes.size());
  }
  static std::string key(std::uint64_t k0 = 3) {
    return dist::rank_checkpoint_key(k0, 1);
  }
  /// Load `blob` as this rank's k0 = 3 cut (its pred tiles are checked).
  void load(const std::vector<std::uint8_t>& blob) const {
    MemoryCheckpointStore store;
    store.put(key(), blob);
    dist::BlockCyclicMatrix<float> a(n, b, grid, me);
    (void)dist::load_rank_checkpoint<float>(store, 3, a);
  }
};

/// The native bytes of `v`, appended to `out`.
template <typename V>
void append_bytes(std::vector<std::uint8_t>& out, V v) {
  std::uint8_t raw[sizeof v];
  std::memcpy(raw, &v, sizeof v);
  out.insert(out.end(), raw, raw + sizeof v);
}

/// Re-seal a mutated sample blob: recompute the header CRC over the
/// header, ext and the 4-entry tile table, so the reader's own field
/// checks — not the checksum — must catch the mutation.
void reseal_sample(std::vector<std::uint8_t>& blob) {
  constexpr std::size_t crc_at = 80 + 4 * 24;
  const std::uint64_t crc = crc32c({blob.data(), crc_at});
  std::memcpy(blob.data() + crc_at, &crc, sizeof crc);
}

TEST(CheckpointFormat, RankBlobMatchesDocumentedLayout) {
  // Hand-assemble the blob from the layout in dist/checkpoint.hpp, field
  // by field in native byte order, without the codec's structs: the
  // writer must produce exactly these bytes.
  const SampleRankBlob s;
  // Local tile (il, jl) is global block (2 il, 2 jl + 1); each tile is its
  // 2x2 block, row-major and contiguous.
  std::vector<std::vector<std::uint8_t>> value_tiles, pred_tiles;
  for (std::uint64_t il = 0; il < 2; ++il)
    for (std::uint64_t jl = 0; jl < 2; ++jl) {
      const std::uint64_t bi = 2 * il, bj = 2 * jl + 1;
      std::vector<std::uint8_t> v, p;
      for (std::uint64_t r = 0; r < 2; ++r)
        for (std::uint64_t c = 0; c < 2; ++c) {
          const std::uint64_t i = 2 * bi + r, j = 2 * bj + c;
          append_bytes(v, static_cast<float>(100 * i + j));
          append_bytes(p, static_cast<std::int64_t>(1000 + 10 * i + j));
        }
      value_tiles.push_back(v);
      pred_tiles.push_back(p);
    }
  std::vector<std::uint8_t> want;
  const auto put = [&want](auto v) { append_bytes(want, v); };
  // Header.
  put(std::uint64_t{0x50464b4350415246});  // "PARFWCKP"
  put(std::uint32_t{3});                   // version
  put(std::uint32_t{4});                   // elem_size: float
  put(std::uint64_t{8});                   // n
  put(std::uint64_t{3});                   // next_block = k0
  put(std::uint64_t{2});                   // block_size
  // Extension.
  put(std::uint32_t{2});    // variant: kAsync
  put(std::uint32_t{2});    // grid rows
  put(std::uint32_t{2});    // grid cols
  put(std::int32_t{0});     // coord row
  put(std::int32_t{1});     // coord col
  put(std::uint32_t{8});    // pred_elem_size
  put(std::uint64_t{41});   // sched_op_index
  put(std::uint64_t{4});    // tile_count
  // Tile table: coordinate, then the CRC32C of the value and pred tile.
  for (std::uint64_t t = 0; t < 4; ++t) {
    put(2 * (t / 2));
    put(2 * (t % 2) + 1);
    put(crc32c(value_tiles[t]));
    put(crc32c(pred_tiles[t]));
  }
  // Header CRC over everything so far, zero-extended to 64 bits.
  put(static_cast<std::uint64_t>(crc32c(want)));
  for (const auto* tiles : {&value_tiles, &pred_tiles})
    for (const auto& tile : *tiles)
      want.insert(want.end(), tile.begin(), tile.end());
  ASSERT_EQ(s.bytes.size(), 80u + 4 * 24 + 8 + 16 * 4 + 16 * 8);
  EXPECT_EQ(s.bytes, want);
}

TEST(CheckpointFormat, V1StreamsAreRejected) {
  const SampleRankBlob s;
  std::vector<std::uint8_t> v1 = s.bytes;
  const std::uint32_t version = 1;
  std::memcpy(v1.data() + 8, &version, sizeof version);
  try {
    s.load(v1);
    FAIL() << "a version-1 blob loaded";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFormat, V2BlobsAreRejected) {
  // There is one reader: a version-2 blob (row-major payload, no CRCs) is
  // refused by name, even with a valid header checksum.
  const SampleRankBlob s;
  std::vector<std::uint8_t> v2 = s.bytes;
  const std::uint32_t version = 2;
  std::memcpy(v2.data() + 8, &version, sizeof version);
  reseal_sample(v2);
  try {
    s.load(v2);
    FAIL() << "a version-2 blob loaded";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFormat, HostileHeadersAreRejected) {
  // Every header field, the extension fields the reader relies on, and
  // the first tile-table entry, each set to a hostile value at its
  // documented byte offset. The header CRC is recomputed after each
  // mutation, so the checksum cannot be what rejects it: the reader must
  // refuse every case by validating the field — no crash, no allocation
  // sized from the lie.
  const SampleRankBlob s;
  s.load(s.bytes);  // the unmodified blob is fine
  struct Field {
    const char* name;
    std::size_t offset;
    std::size_t width;
    std::uint64_t value;
  };
  const std::uint64_t kNeg1 = 0xffffffffu;  // int32 -1
  const Field cases[] = {
      {"magic", 0, 8, 0x1234},
      {"version", 8, 4, 4},
      {"elem_size", 12, 4, 0},
      {"elem_size", 12, 4, 3},
      {"elem_size", 12, 4, 8},  // a float blob read as double, reversed
      {"n", 16, 8, 0},
      {"n", 16, 8, 5},
      {"n", 16, 8, 10},
      {"n", 16, 8, 16},
      {"n", 16, 8, std::uint64_t{1} << 31},
      {"n", 16, 8, std::uint64_t{1} << 32},
      {"n", 16, 8, ~std::uint64_t{0} - 1},
      {"next_block", 24, 8, 2},
      {"block_size", 32, 8, 0},
      {"block_size", 32, 8, 3},
      {"block_size", 32, 8, 4},
      {"block_size", 32, 8, std::uint64_t{1} << 63},
      {"grid_rows", 44, 4, 0},
      {"grid_rows", 44, 4, 1},
      {"grid_rows", 44, 4, 0x80000000u},
      {"grid_cols", 48, 4, 0},
      {"grid_cols", 48, 4, 4},
      {"coord_row", 52, 4, kNeg1},
      {"coord_row", 52, 4, 1},
      {"coord_row", 52, 4, 2},
      {"coord_col", 56, 4, kNeg1},
      {"coord_col", 56, 4, 0},
      {"coord_col", 56, 4, 5},
      {"pred_elem_size", 60, 4, 0},
      {"pred_elem_size", 60, 4, 4},
      {"pred_elem_size", 60, 4, 16},
      {"tile_count", 72, 8, 0},
      {"tile_count", 72, 8, 3},
      {"tile_count", 72, 8, 5},
      {"tile_count", 72, 8, std::uint64_t{1} << 62},
      {"tile_ref.block_row", 80, 8, 2},
      {"tile_ref.block_col", 88, 8, 0},
      {"tile_ref.value_crc32c", 96, 4, 0},
      {"tile_ref.pred_crc32c", 100, 4, 0},
  };
  for (const Field& f : cases) {
    std::vector<std::uint8_t> blob = s.bytes;
    const auto narrow = static_cast<std::uint32_t>(f.value);
    if (f.width == 8)
      std::memcpy(blob.data() + f.offset, &f.value, 8);
    else
      std::memcpy(blob.data() + f.offset, &narrow, 4);
    reseal_sample(blob);
    EXPECT_THROW(s.load(blob), check_error) << f.name << " = " << f.value;
  }
  // A well-formed float blob read into a double matrix.
  MemoryCheckpointStore store;
  store.put(SampleRankBlob::key(), s.bytes);
  dist::BlockCyclicMatrix<double> d(s.n, s.b, s.grid, s.me);
  EXPECT_THROW(dist::load_rank_checkpoint<double>(store, 3, d), check_error);
}

TEST(CheckpointFormat, EveryTruncationIsRejected) {
  const SampleRankBlob s;
  for (std::size_t len = 0; len < s.bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(s.bytes.begin(),
                                        s.bytes.begin() + len);
    try {
      s.load(cut);
      ADD_FAILURE() << len << " of " << s.bytes.size() << " bytes loaded";
    } catch (const check_error& e) {
      EXPECT_NE(std::string(e.what()).find(SampleRankBlob::key()),
                std::string::npos)
          << e.what();
    }
  }
  std::vector<std::uint8_t> longer = s.bytes;
  longer.push_back(0);
  EXPECT_THROW(s.load(longer), check_error) << "trailing byte";
}

TEST(CheckpointFormat, BlobFromAnotherCutIsRejected) {
  // A k0 = 2 blob sitting under the k0 = 4 key must not resume as k0 = 4.
  SampleRankBlob s;
  MemoryCheckpointStore store;
  dist::BlockCyclicMatrix<float> a(s.n, s.b, s.grid, s.me);
  a.load(s.values.view());
  s.pos.k0 = 2;
  dist::save_rank_checkpoint(store, a, s.pos);
  store.put(SampleRankBlob::key(4), *store.get(SampleRankBlob::key(2)));
  try {
    (void)dist::load_rank_checkpoint<float>(store, 4, a);
    FAIL() << "the k0=2 blob resumed as k0=4";
  } catch (const check_error& e) {
    const std::string what = e.what();
    for (const std::string& want :
         {SampleRankBlob::key(4), std::string("k0=2"), std::string("k0=4")})
      EXPECT_NE(what.find(want), std::string::npos) << what;
  }
}

bool same_answers(const std::vector<QueryResult<float>>& x,
                  const std::vector<QueryResult<float>>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x[i].status != y[i].status || x[i].distance != y[i].distance ||
        x[i].path != y[i].path)
      return false;
  return true;
}

TEST(CheckpointFormat, WholeBlobMutationSweep) {
  // Every byte of every rank blob of a published 2x2-grid paths run
  // (n = 32, b = 8), flipped one at a time. Resuming from the blob and
  // serving from the manifest must each fail with a check_error that
  // names the blob's key — and, for a payload byte, its tile — and never
  // answer with a wrong distance or predecessor.
  constexpr std::size_t n = 32, b = 8, nb = n / b;
  const Graph g = gen::erdos_renyi(n, 0.15, 11);
  ApspOptions opt;
  opt.block_size = b;
  opt.track_paths = true;
  const ApspResult<float> oracle = apsp<S>(g, opt);
  MemoryCheckpointStore pub;
  serve::publish_result(pub, oracle, b, 2, 2);
  const auto grid = dist::GridSpec::row_major(2, 2);
  // src in block row I, dst in block column J, src != dst: the batch
  // fetches every value tile and every pred tile.
  QueryBatch batch;
  for (std::size_t I = 0; I < nb; ++I)
    for (std::size_t J = 0; J < nb; ++J)
      batch.add(static_cast<std::int64_t>(I * b + 1),
                static_cast<std::int64_t>(J * b + 2));
  ASSERT_TRUE(same_answers(serve::PathService<S>(pub).answer(batch),
                           oracle.answer(batch)));

  std::size_t flips = 0;
  for (int w = 0; w < grid.size(); ++w) {
    const std::string key = dist::rank_checkpoint_key(nb, w);
    const std::vector<std::uint8_t> clean = *pub.get(key);
    dist::RankBlobLayout l = dist::decode_rank_blob_header(clean, key);
    dist::decode_rank_blob_table(l, clean, key);
    ASSERT_EQ(clean.size(), l.blob_bytes);
    for (std::size_t at = 0; at < clean.size(); ++at, ++flips) {
      // What the error must name: the key, plus the tile for payload bytes.
      std::vector<std::string> names = {"'" + key + "'"};
      if (at >= l.payload_offset) {
        const bool pred = at >= l.pred_payload_offset;
        const std::uint64_t t =
            (at - (pred ? l.pred_payload_offset : l.payload_offset)) /
            l.tile_bytes(pred);
        names.push_back(std::string(pred ? "pred" : "value") + " tile (" +
                        std::to_string(l.tiles[t].block_row) + "," +
                        std::to_string(l.tiles[t].block_col) + ")");
      }
      const auto named = [&](const check_error& e) {
        for (const std::string& want : names)
          if (std::string(e.what()).find(want) == std::string::npos)
            return testing::AssertionFailure()
                   << "byte " << at << " of '" << key << "': " << e.what();
        return testing::AssertionSuccess();
      };
      std::vector<std::uint8_t> bad = clean;
      bad[at] ^= 0xff;
      pub.put(key, bad);

      dist::BlockCyclicMatrix<float> a(n, b, grid, grid.coord_of(w));
      try {
        (void)dist::load_rank_checkpoint<float>(pub, nb, a);
        ADD_FAILURE() << "resumed from a blob with byte " << at << " of '"
                      << key << "' flipped";
      } catch (const check_error& e) {
        EXPECT_TRUE(named(e));
      }
      try {
        serve::PathService<S> service(pub);
        const auto got = service.answer(batch);
        ADD_FAILURE() << "served a blob with byte " << at << " of '" << key
                      << "' flipped; answers "
                      << (same_answers(got, oracle.answer(batch)) ? "match"
                                                                  : "DIFFER")
                      << " the oracle";
      } catch (const check_error& e) {
        EXPECT_TRUE(named(e));
      }
      if (HasFailure()) return;
    }
    pub.put(key, clean);
  }
  EXPECT_EQ(flips, 4 * (80 + 4 * 24 + 8 + 4 * 64 * (4 + 8)));
}

TEST(CheckpointFormat, V3RoundTripThroughStore) {
  // Every rank of each grid round-trips its tiles and schedule position.
  // On 1x1 the local matrix is the row-major matrix itself (the
  // single-node checkpoint). On 3x3 over 2 block rows some ranks own no
  // tiles and still round-trip.
  const std::size_t n = 6, b = 3;
  Matrix<double> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = 0.5 * static_cast<double>(i) - static_cast<double>(j);

  for (int side : {1, 2, 3}) {
    const auto grid = dist::GridSpec::row_major(side, side);
    MemoryCheckpointStore store;
    const dist::SchedulePosition pos{sched::Variant::kPipelined, 1, 9};
    for (int w = 0; w < grid.size(); ++w) {
      dist::BlockCyclicMatrix<double> a(n, b, grid, grid.coord_of(w));
      a.load(m.view());
      const std::size_t bytes = dist::save_rank_checkpoint(store, a, pos);
      EXPECT_EQ(bytes, 80 + 8 + a.local_block_rows() * a.local_block_cols() *
                                    (24 + b * b * sizeof(double)));

      dist::BlockCyclicMatrix<double> back(n, b, grid, grid.coord_of(w));
      const auto got = dist::load_rank_checkpoint<double>(store, 1, back);
      EXPECT_EQ(got.variant, pos.variant);
      EXPECT_EQ(got.k0, 1u);
      EXPECT_EQ(got.sched_op_index, 9u);
      EXPECT_EQ(max_abs_diff<double>(a.local().view(), back.local().view()),
                0.0)
          << side << "x" << side << " rank " << w;
      if (side == 1) {
        EXPECT_EQ(max_abs_diff<double>(m.view(), back.local().view()), 0.0);
      }
    }
  }
}

TEST(CheckpointFormat, PredPayloadRoundTripAndValueOnlyCompat) {
  // A published paths result carries the pred tiles after the value
  // tiles, flagged by ext.pred_elem_size: every pred tile decodes back
  // bit-identically, and the values reader (a resume) checks but skips
  // them. A mid-run cut is values only.
  const std::size_t n = 24, b = 4;
  const auto grid = dist::GridSpec::row_major(2, 2);
  DenseEntryGen<float> gen(303, 0.8, 1.0f, 50.0f, /*integral=*/true);
  const Matrix<float> values = gen.full(static_cast<vertex_t>(n));
  Matrix<std::int64_t> preds(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      preds(i, j) = static_cast<std::int64_t>(7 * i + 3 * j) - 5;

  dist::SchedulePosition pos;
  pos.k0 = 3;
  pos.sched_op_index = 17;
  for (int w = 0; w < grid.size(); ++w) {
    const auto me = grid.coord_of(w);
    MemoryCheckpointStore store;
    dist::save_rank_blob<float>(store, n, b, grid, me, pos, values.view(),
                                preds.view(), /*global=*/true);
    const std::string key = dist::rank_checkpoint_key(3, w);
    const std::vector<std::uint8_t> blob = *store.get(key);
    dist::RankBlobLayout l = dist::decode_rank_blob_header(blob, key);
    dist::decode_rank_blob_table(l, blob, key);
    ASSERT_EQ(l.ext.pred_elem_size, sizeof(std::int64_t));
    std::size_t mism = 0;
    for (std::size_t t = 0; t < l.tiles.size(); ++t) {
      const std::uint8_t* at = blob.data() + l.tile_slice(t, true).range.offset;
      for (std::size_t r = 0; r < b; ++r)
        for (std::size_t c = 0; c < b; ++c) {
          std::int64_t got;
          std::memcpy(&got, at + (r * b + c) * sizeof got, sizeof got);
          mism += got != preds(l.tiles[t].block_row * b + r,
                               l.tiles[t].block_col * b + c);
        }
    }
    EXPECT_EQ(mism, 0u) << "rank " << w;

    // The values reader consumes the pred-carrying blob.
    dist::BlockCyclicMatrix<float> a(n, b, grid, me), want(n, b, grid, me);
    want.load(values.view());
    const auto got = dist::load_rank_checkpoint<float>(store, 3, a);
    EXPECT_EQ(got.k0, 3u);
    EXPECT_EQ(got.sched_op_index, 17u);
    EXPECT_EQ(max_abs_diff<float>(want.local().view(), a.local().view()), 0.0);

    // A cut is values only and round-trips the same tiles.
    MemoryCheckpointStore vstore;
    dist::save_rank_checkpoint<float>(vstore, want, pos);
    const std::vector<std::uint8_t> vblob = *vstore.get(key);
    EXPECT_EQ(dist::decode_rank_blob_header(vblob, key).ext.pred_elem_size, 0u);
    dist::BlockCyclicMatrix<float> a2(n, b, grid, me);
    (void)dist::load_rank_checkpoint<float>(vstore, 3, a2);
    EXPECT_EQ(max_abs_diff<float>(want.local().view(), a2.local().view()),
              0.0);
  }
}

TEST(CheckpointFormat, CommitRecordRoundTrip) {
  MemoryCheckpointStore store;
  EXPECT_FALSE(dist::read_commit(store).has_value());

  dist::CommitRecord rec;
  rec.k0 = 4;
  rec.variant = 2;
  rec.world_size = 4;
  rec.n = 96;
  rec.block_size = 16;
  rec.sched_op_index = 123;
  dist::write_commit(store, rec);

  const auto got = dist::read_commit(store);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->k0, 4u);
  EXPECT_EQ(got->n, 96u);
  EXPECT_EQ(got->sched_op_index, 123u);

  // Corrupt blobs are rejected, not misread and not taken as "absent".
  store.put(dist::kCommitKey, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_THROW(dist::read_commit(store), check_error);
}

/// Forwards to a memory store, flipping byte `flip_at` of every commit
/// record written through it.
class FlipCommitStore final : public CheckpointStore {
 public:
  explicit FlipCommitStore(std::size_t flip_at) : flip_at_(flip_at) {}
  void put(const std::string& key,
           std::span<const std::uint8_t> blob) override {
    std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
    if (key == dist::kCommitKey) bytes.at(flip_at_) ^= 0xff;
    inner_.put(key, bytes);
  }
  std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) const override {
    return inner_.get(key);
  }
  void erase(const std::string& key) override { inner_.erase(key); }
  std::vector<std::string> keys() const override { return inner_.keys(); }

 private:
  std::size_t flip_at_;
  MemoryCheckpointStore inner_;
};

TEST(CheckpointFormat, CommitRecordMutationSweep) {
  // Every byte of a committed record, flipped one at a time. A restart
  // that resumes from the cut and a reader that opens the published
  // manifest must each fail with a check_error naming the commit record,
  // never resume from or serve a misread cut.
  constexpr std::size_t n = 32, b = 8;
  const auto grid = dist::GridSpec::row_major(2, 2);
  DenseEntryGen<float> gen(515, 0.9, 1.0f, 80.0f, /*integral=*/true);
  const Graph g = gen::erdos_renyi(n, 0.15, 12);
  ApspOptions aopt;
  aopt.block_size = b;
  MemoryCheckpointStore pub;
  serve::publish_result(pub, apsp<S>(g, aopt), b, 2, 2);
  const std::vector<std::uint8_t> clean = *pub.get(dist::kCommitKey);
  ASSERT_EQ(clean.size(), sizeof(dist::CommitRecord));
  sched::ScheduleParams sp;
  sp.variant = sched::Variant::kAsync;
  sp.nb = n / b;
  sp.b = b;
  sp.word_bytes = sizeof(float);
  sp.checkpoint_every = 1;
  const auto len =
      static_cast<std::int64_t>(sched::build_schedule(grid, sp).steps.size());

  const auto names_commit = [](const check_error& e, std::size_t at) {
    if (std::string(e.what()).find("corrupt commit record 'commit'") !=
        std::string::npos)
      return testing::AssertionSuccess();
    return testing::AssertionFailure() << "byte " << at << ": " << e.what();
  };
  for (std::size_t at = 0; at < clean.size(); ++at) {
    // Resume: a crash past the first cut makes the restart read the
    // (flipped) commit record.
    FlipCommitStore store(at);
    dist::DistFwOptions opt;
    opt.variant = sched::Variant::kAsync;
    opt.block_size = b;
    opt.resilience.checkpoint_every = 1;
    opt.resilience.store = &store;
    opt.faults.seed = 7;
    opt.faults.crash_rank = 1;
    opt.faults.crash_at_op = len * 3 / 5;
    try {
      (void)dist::run_parallel_fw<S>(n, gen, grid, 2, opt);
      ADD_FAILURE() << "resumed from a commit record with byte " << at
                    << " flipped";
    } catch (const check_error& e) {
      EXPECT_TRUE(names_commit(e, at));
    }

    std::vector<std::uint8_t> bad = clean;
    bad[at] ^= 0xff;
    pub.put(dist::kCommitKey, bad);
    try {
      (void)serve::ServeManifest::open(pub);
      ADD_FAILURE() << "opened a manifest whose commit record has byte "
                    << at << " flipped";
    } catch (const check_error& e) {
      EXPECT_TRUE(names_commit(e, at));
    }
  }
  pub.put(dist::kCommitKey, clean);
  EXPECT_NO_THROW((void)serve::ServeManifest::open(pub));
}

// --- Crash-restart property -----------------------------------------------------

Matrix<float> oracle(std::size_t n, const DenseEntryGen<float>& gen) {
  auto m = gen.full(static_cast<vertex_t>(n));
  floyd_warshall<S>(m.view());
  return m;
}

struct CrashCase {
  sched::Variant variant;
  bool tiled;
};

// Names the instances in test ids (e.g. async_tiled). Without it gtest
// prints the struct's raw bytes, padding included, which differ between
// builds.
void PrintTo(const CrashCase& c, std::ostream* os) {
  *os << sched::variant_name(c.variant) << (c.tiled ? "_tiled" : "_naive");
}

class CrashRestart : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashRestart, BitIdenticalAfterRestartFromCheckpoint) {
  const CrashCase c = GetParam();
  const std::size_t n = 96, b = 16;
  DenseEntryGen<float> gen(4242 + static_cast<std::uint64_t>(c.variant),
                           0.85, 1.0f, 90.0f, /*integral=*/true);
  const auto expected = oracle(n, gen);

  const auto grid = c.tiled ? dist::GridSpec::tiled(1, 2, 2, 1)
                            : dist::GridSpec::row_major(2, 2);
  const int rpn = c.tiled ? grid.qr() * grid.qc() : 2;

  dist::DistFwOptions opt;
  opt.variant = c.variant;
  opt.block_size = b;
  if (c.variant == sched::Variant::kOffload) {
    opt.oog.mx = opt.oog.nx = 16;
    opt.oog.num_streams = 2;
  }

  // Crash coordinate: 60% through the global schedule — past at least one
  // committed checkpoint cut (every 2 of 6 iterations) for every variant.
  sched::ScheduleParams sp;
  sp.variant = c.variant;
  sp.nb = n / b;
  sp.b = b;
  sp.word_bytes = sizeof(float);
  sp.checkpoint_every = 2;
  const auto schedule = sched::build_schedule(grid, sp);
  const auto crash_at =
      static_cast<std::int64_t>(schedule.steps.size() * 6 / 10);

  MemoryCheckpointStore store;
  opt.resilience.checkpoint_every = 2;
  opt.resilience.store = &store;
  opt.faults.seed = 99;  // crash injection alone; no message faults
  opt.faults.crash_rank = 1;
  opt.faults.crash_at_op = crash_at;

  const auto result = dist::run_parallel_fw<S>(n, gen, grid, rpn, opt);
  EXPECT_GE(result.restarts, 1) << "the injected crash must have fired";
  EXPECT_GT(result.traffic.checkpoints, 0u);
  EXPECT_GT(result.traffic.checkpoint_bytes, 0u);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), result.dist.view()), 0.0)
      << "variant=" << sched::variant_name(c.variant)
      << " tiled=" << c.tiled << " crash_at=" << crash_at;

  // The committed cut the restart consumed is still present and sane.
  const auto commit = dist::read_commit(store);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->n, n);
  EXPECT_EQ(commit->block_size, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsBothPlacements, CrashRestart,
    ::testing::Values(CrashCase{sched::Variant::kBaseline, false},
                      CrashCase{sched::Variant::kPipelined, false},
                      CrashCase{sched::Variant::kAsync, false},
                      CrashCase{sched::Variant::kOffload, false},
                      CrashCase{sched::Variant::kBaseline, true},
                      CrashCase{sched::Variant::kPipelined, true},
                      CrashCase{sched::Variant::kAsync, true},
                      CrashCase{sched::Variant::kOffload, true}));

class CrashRestartPaths : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashRestartPaths, PredMatrixBitIdenticalAfterRestart) {
  // Paths runs go through the SAME supervision loop and the same values
  // schedule: wherever a crash lands — before the first cut, between cuts,
  // late — the resumed run's distances and its witness pred matrix must
  // match the single-node blocked solve and the scalar witness oracle
  // bit-for-bit, exactly as an uninterrupted paths run does.
  const CrashCase c = GetParam();
  const std::size_t n = 96, b = 16;
  DenseEntryGen<float> gen(5242 + static_cast<std::uint64_t>(c.variant),
                           0.85, 1.0f, 90.0f, /*integral=*/true);
  auto exp_dist = gen.full(static_cast<vertex_t>(n));
  Matrix<std::int64_t> exp_pred(n, n);
  blocked_floyd_warshall_paths<S>(exp_dist.view(), exp_pred.view(), b);
  const auto witness = witness_oracle<S>(
      gen.full(static_cast<vertex_t>(n)).view(), exp_dist.view());

  const auto grid = c.tiled ? dist::GridSpec::tiled(1, 2, 2, 1)
                            : dist::GridSpec::row_major(2, 2);
  const int rpn = c.tiled ? grid.qr() * grid.qc() : 2;

  dist::DistFwOptions opt;
  opt.variant = c.variant;
  opt.block_size = b;
  if (c.variant == sched::Variant::kOffload) {
    opt.oog.mx = opt.oog.nx = 16;
    opt.oog.num_streams = 2;
  }

  // The crash coordinate indexes the schedule a paths run executes: the
  // values schedule.
  sched::ScheduleParams sp;
  sp.variant = c.variant;
  sp.nb = n / b;
  sp.b = b;
  sp.word_bytes = sizeof(float);
  sp.checkpoint_every = 2;
  const auto len = static_cast<std::int64_t>(
      sched::build_schedule(grid, sp).steps.size());

  for (const std::int64_t tenth : {1, 4, 6, 9}) {
    const std::int64_t crash_at = len * tenth / 10;
    MemoryCheckpointStore store;
    opt.resilience.checkpoint_every = 2;
    opt.resilience.store = &store;
    opt.faults.seed = 99;
    opt.faults.crash_rank = 1;
    opt.faults.crash_at_op = crash_at;

    const auto result = dist::run_parallel_fw<S>(n, gen, grid, rpn, opt,
                                                 /*track_paths=*/true);
    EXPECT_GE(result.restarts, 1) << "the injected crash must have fired";
    EXPECT_EQ(max_abs_diff<float>(exp_dist.view(), result.dist.view()), 0.0);
    ASSERT_EQ(result.pred.rows(), n);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        mismatches += (result.pred(i, j) != exp_pred(i, j)) +
                      (result.pred(i, j) != witness(i, j));
    EXPECT_EQ(mismatches, 0u)
        << "variant=" << sched::variant_name(c.variant) << " tiled=" << c.tiled
        << " crash_at=" << crash_at;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsBothPlacements, CrashRestartPaths,
    ::testing::Values(CrashCase{sched::Variant::kBaseline, false},
                      CrashCase{sched::Variant::kPipelined, false},
                      CrashCase{sched::Variant::kAsync, false},
                      CrashCase{sched::Variant::kOffload, false},
                      CrashCase{sched::Variant::kBaseline, true},
                      CrashCase{sched::Variant::kPipelined, true},
                      CrashCase{sched::Variant::kAsync, true},
                      CrashCase{sched::Variant::kOffload, true}));

TEST(CrashRestartSweep, BitIdenticalFromEveryCrashPoint) {
  // Sweep the crash op across the schedule: wherever the crash lands —
  // before the first cut, between cuts, mid-snapshot — the restart must
  // reproduce the uninterrupted answer bit-identically.
  const std::size_t n = 64, b = 16;
  DenseEntryGen<float> gen(777, 0.9, 1.0f, 80.0f, /*integral=*/true);
  const auto expected = oracle(n, gen);
  const auto grid = dist::GridSpec::row_major(2, 2);

  sched::ScheduleParams sp;
  sp.variant = sched::Variant::kAsync;
  sp.nb = n / b;
  sp.b = b;
  sp.word_bytes = sizeof(float);
  sp.checkpoint_every = 1;
  const auto len =
      static_cast<std::int64_t>(sched::build_schedule(grid, sp).steps.size());

  for (std::int64_t frac = 1; frac <= 4; ++frac) {
    MemoryCheckpointStore store;
    dist::DistFwOptions opt;
    opt.variant = sched::Variant::kAsync;
    opt.block_size = b;
    opt.resilience.checkpoint_every = 1;
    opt.resilience.store = &store;
    opt.faults.seed = 5;
    opt.faults.crash_rank = static_cast<int>(frac % 4);
    opt.faults.crash_at_op = len * frac / 5;
    const auto result = dist::run_parallel_fw<S>(n, gen, grid, 2, opt);
    EXPECT_GE(result.restarts, 1) << "crash_at=" << opt.faults.crash_at_op;
    EXPECT_EQ(max_abs_diff<float>(expected.view(), result.dist.view()), 0.0)
        << "crash_at=" << opt.faults.crash_at_op;
  }
}

TEST(CrashRestart, NoStoreRestartsFromScratch) {
  // Without a store the supervision loop still recovers — by re-running
  // the whole solve from the original input.
  const std::size_t n = 64, b = 16;
  DenseEntryGen<float> gen(31, 0.9, 1.0f, 80.0f, /*integral=*/true);
  const auto expected = oracle(n, gen);

  dist::DistFwOptions opt;
  opt.block_size = b;
  opt.faults.seed = 3;
  opt.faults.crash_rank = 2;
  opt.faults.crash_at_op = 20;
  const auto result = dist::run_parallel_fw<S>(
      n, gen, dist::GridSpec::row_major(2, 2), 2, opt);
  EXPECT_GE(result.restarts, 1);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), result.dist.view()), 0.0);
}

// --- Message-fault completion ----------------------------------------------------

TEST(MessageFaults, FivePercentDropRunCompletesWithinRetryBudget) {
  // ISSUE acceptance: a 5% seeded drop run completes within the retry
  // budget, with retries visible in both TrafficStats and the Chrome
  // trace.
  const std::size_t n = 96, b = 16;
  DenseEntryGen<float> gen(2024, 0.85, 1.0f, 90.0f, /*integral=*/true);
  const auto expected = oracle(n, gen);

  sched::CollectTraceSink trace;
  dist::DistFwOptions opt;
  opt.variant = sched::Variant::kAsync;
  opt.block_size = b;
  opt.trace = &trace;
  opt.faults.seed = 1234;
  opt.faults.drop_prob = 0.05;
  opt.resilience.send_timeout = 0.002;  // fast retransmission for the test

  const auto result = dist::run_parallel_fw<S>(
      n, gen, dist::GridSpec::row_major(2, 2), 2, opt);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), result.dist.view()), 0.0);
  EXPECT_GT(result.traffic.drops_injected, 0u);
  EXPECT_GT(result.traffic.retries, 0u);
  EXPECT_GT(result.traffic.retry_bytes, 0u);
  EXPECT_EQ(result.restarts, 0) << "drops must be absorbed by retries";

  std::ostringstream os;
  trace.write_chrome(os);
  EXPECT_NE(os.str().find("\"retry\""), std::string::npos)
      << "retransmissions must appear as instants in the Chrome trace";
  EXPECT_NE(os.str().find("\"drop\""), std::string::npos);
}

TEST(MessageFaults, RetryBytesStayOutOfLogicalTotals) {
  // Logical accounting (messages, bytes_total) must be identical with and
  // without faults — that is what keeps the DES byte cross-validation
  // exact; retransmissions land in retry_bytes only.
  const std::size_t n = 64, b = 16;
  DenseEntryGen<float> gen(808, 0.9, 1.0f, 80.0f, /*integral=*/true);
  const auto grid = dist::GridSpec::row_major(2, 2);

  dist::DistFwOptions clean;
  clean.block_size = b;
  const auto r0 = dist::run_parallel_fw<S>(n, gen, grid, 2, clean);

  dist::DistFwOptions faulty = clean;
  faulty.faults.seed = 17;
  faulty.faults.drop_prob = 0.05;
  faulty.faults.dup_prob = 0.05;
  faulty.faults.delay_prob = 0.1;
  faulty.faults.delay_seconds = 0.0005;
  faulty.resilience.send_timeout = 0.002;
  const auto r1 = dist::run_parallel_fw<S>(n, gen, grid, 2, faulty);

  EXPECT_EQ(r0.traffic.messages, r1.traffic.messages);
  EXPECT_EQ(r0.traffic.bytes_total, r1.traffic.bytes_total);
  EXPECT_EQ(r0.traffic.nic_bytes, r1.traffic.nic_bytes);
  EXPECT_GT(r1.traffic.drops_injected + r1.traffic.dups_injected +
                r1.traffic.delays_injected,
            0u);
  EXPECT_EQ(max_abs_diff<float>(r0.dist.view(), r1.dist.view()), 0.0);
}

// --- parfw::solve front door ------------------------------------------------------

TEST(SolveFrontDoor, DistributedMatchesBlocked) {
  const auto g = gen::erdos_renyi(96, 0.2, 51, 1.0, 90.0, true);

  ApspOptions blocked;
  blocked.algorithm = ApspAlgorithm::kBlocked;
  blocked.block_size = 16;
  const auto ref = solve<S>(g, blocked);

  ApspOptions distributed;
  distributed.algorithm = ApspAlgorithm::kDistributed;
  distributed.block_size = 16;
  distributed.dist.variant = sched::Variant::kAsync;
  distributed.dist.grid_rows = 2;
  distributed.dist.grid_cols = 2;
  const auto got = solve<S>(g, distributed);
  EXPECT_EQ(max_abs_diff<float>(ref.dist.view(), got.dist.view()), 0.0);
}

TEST(SolveFrontDoor, DistributedTiledWithResilience) {
  const auto g = gen::erdos_renyi(96, 0.2, 52, 1.0, 90.0, true);
  ApspOptions ref_opt;
  ref_opt.algorithm = ApspAlgorithm::kBlockedParallel;
  ref_opt.block_size = 16;
  const auto ref = solve<S>(g, ref_opt);

  MemoryCheckpointStore store;
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kDistributed;
  opt.block_size = 16;
  opt.dist.variant = sched::Variant::kPipelined;
  opt.dist.tiled = true;
  opt.dist.grid_rows = 2;
  opt.dist.grid_cols = 2;
  opt.dist.node_rows = 1;
  opt.dist.node_cols = 2;
  opt.dist.resilience.checkpoint_every = 2;
  opt.dist.resilience.store = &store;
  const auto got = solve<S>(g, opt);
  EXPECT_EQ(max_abs_diff<float>(ref.dist.view(), got.dist.view()), 0.0);
  EXPECT_FALSE(store.keys().empty()) << "cuts must land in the store";
}

TEST(SolveFrontDoor, DistributedTrackPaths) {
  const auto g = gen::erdos_renyi(64, 0.25, 53, 1.0, 80.0, true);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kDistributed;
  opt.track_paths = true;
  opt.block_size = 16;
  telemetry::Registry reg;
  opt.dist.metrics = &reg;
  const auto r = solve<S>(g, opt);
  ASSERT_TRUE(r.pred.has_value());
  // The witness pass reports into the run's registry.
  EXPECT_EQ(reg.histogram("paths.witness.seconds", "method=scan").count() +
                reg.histogram("paths.witness.seconds", "method=product")
                    .count(),
            1u);
  EXPECT_EQ(reg.counter("paths.witness.bfs_rows").value(), 0u);

  // Every finite path must replay to its reported distance.
  const std::size_t n = 64;
  for (std::size_t i = 0; i < n; i += 7)
    for (std::size_t j = 0; j < n; j += 5) {
      if (value_traits<float>::is_inf(r.dist(i, j))) continue;
      const auto p =
          r.query(static_cast<vertex_t>(i), static_cast<vertex_t>(j)).path;
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), static_cast<std::int64_t>(i));
      EXPECT_EQ(p.back(), static_cast<std::int64_t>(j));
    }
}

TEST(SolveFrontDoor, ApspRejectsDistributedDirectly) {
  // core apsp() cannot see the runtime; the error must point at solve().
  const auto g = gen::erdos_renyi(16, 0.3, 54);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kDistributed;
  EXPECT_THROW(apsp<S>(g, opt), std::exception);
}

}  // namespace
}  // namespace parfw
