// Serving-tier tests (DESIGN.md §4.12): tile cache policy (budget
// invariant, determinism, admission), manifest validation, and the
// central contract — served distances, statuses and paths bit-identical
// to the in-memory ApspResult oracle, across all distributed variants,
// both placements, crashed-and-resumed producers, and the solve() front
// door (auto included).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "causal/analysis.hpp"
#include "causal/graph.hpp"
#include "causal/trace_io.hpp"
#include "core/apsp.hpp"
#include "core/checkpoint_store.hpp"
#include "core/floyd_warshall.hpp"
#include "core/query.hpp"
#include "dist/checkpoint.hpp"
#include "dist/driver.hpp"
#include "dist/solve.hpp"
#include "graph/generators.hpp"
#include "sched/trace.hpp"
#include "serve/manifest.hpp"
#include "serve/path_service.hpp"
#include "serve/publish.hpp"
#include "serve/qtrace.hpp"
#include "serve/slo.hpp"
#include "serve/tile_cache.hpp"
#include "serve/workload.hpp"
#include "telemetry/metrics.hpp"
#include "util/crc32c.hpp"

#include "oracles.hpp"

namespace parfw {
namespace {

using S = MinPlus<float>;
using serve::CacheAdmission;
using serve::TileCache;
using serve::TileCacheConfig;
using serve::TileKey;
using serve::TileKind;

std::vector<std::uint8_t> tile_bytes(std::size_t size, std::uint8_t fill) {
  return std::vector<std::uint8_t>(size, fill);
}

// --- TileCache ---------------------------------------------------------------

TEST(TileCache, HitMissAccountingAndBudgetInvariant) {
  TileCache cache(TileCacheConfig{/*budget_bytes=*/1000});
  // Deterministic stream of 40 distinct 300-byte tiles, re-touched in a
  // cycle: budget holds 3 tiles, so the sweep thrashes. The invariant —
  // bytes_resident <= budget — must hold after EVERY operation.
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t i = 0; i < 40; ++i) {
      const TileKey key{TileKind::kValue, i, 0};
      if (cache.find(key) == nullptr) {
        auto bytes = tile_bytes(300, static_cast<std::uint8_t>(i));
        cache.insert(key, bytes);
      }
      ASSERT_LE(cache.stats().bytes_resident, cache.budget_bytes());
      ASSERT_LE(cache.stats().bytes_peak, cache.budget_bytes());
    }
  }
  const auto& s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 200u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.bytes_resident, 900u);  // 3 resident 300-byte tiles
}

TEST(TileCache, DeterministicUnderFixedStream) {
  // Two caches fed the identical request stream must agree on every
  // statistic — the property the BENCH_serve hit-rate gate stands on.
  const TileCacheConfig cfg{/*budget_bytes=*/4096,
                            CacheAdmission::kSecondTouch,
                            /*ghost_capacity=*/16};
  TileCache a(cfg), b(cfg);
  Rng rng = Rng::split(42, 7);
  std::vector<TileKey> stream;
  for (int i = 0; i < 2000; ++i)
    stream.push_back(TileKey{TileKind::kValue,
                             static_cast<std::uint32_t>(rng.next_below(24)),
                             static_cast<std::uint32_t>(rng.next_below(24))});
  for (const TileKey& key : stream) {
    const bool ha = a.find(key) != nullptr;
    const bool hb = b.find(key) != nullptr;
    ASSERT_EQ(ha, hb);
    if (!ha) {
      auto ba = tile_bytes(256, 1), bb = tile_bytes(256, 1);
      ASSERT_EQ(a.insert(key, ba) != nullptr, b.insert(key, bb) != nullptr);
    }
  }
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().misses, b.stats().misses);
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
  EXPECT_EQ(a.stats().admitted, b.stats().admitted);
  EXPECT_EQ(a.stats().bypassed, b.stats().bypassed);
  EXPECT_EQ(a.stats().bytes_resident, b.stats().bytes_resident);
}

TEST(TileCache, SecondTouchAdmission) {
  TileCache cache(TileCacheConfig{/*budget_bytes=*/4096,
                                  CacheAdmission::kSecondTouch});
  const TileKey key{TileKind::kPred, 3, 4};
  auto bytes = tile_bytes(128, 9);
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_EQ(cache.insert(key, bytes), nullptr);  // first touch: ghost only
  EXPECT_EQ(cache.stats().bypassed, 1u);
  EXPECT_EQ(cache.find(key), nullptr);
  const auto* stored = cache.insert(key, bytes);  // second touch: admitted
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->size(), 128u);
  EXPECT_NE(cache.find(key), nullptr);
  EXPECT_EQ(cache.stats().admitted, 1u);
}

TEST(TileCache, OversizedTileNeverAdmitted) {
  TileCache cache(TileCacheConfig{/*budget_bytes=*/100});
  const TileKey key{TileKind::kValue, 0, 0};
  auto bytes = tile_bytes(101, 1);
  EXPECT_EQ(cache.insert(key, bytes), nullptr);
  EXPECT_EQ(bytes.size(), 101u);  // caller keeps its buffer
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().bytes_resident, 0u);
}

TEST(TileCache, ClockGivesSecondChanceToTouchedTiles) {
  // Budget = 2 tiles. Touch A so its reference bit is set; inserting C
  // must evict B (A gets its second chance), the defining CLOCK move.
  TileCache cache(TileCacheConfig{/*budget_bytes=*/200});
  const TileKey ka{TileKind::kValue, 0, 0}, kb{TileKind::kValue, 1, 0},
      kc{TileKind::kValue, 2, 0};
  auto bytes = tile_bytes(100, 1);
  cache.insert(ka, bytes);
  bytes = tile_bytes(100, 2);
  cache.insert(kb, bytes);
  ASSERT_NE(cache.find(ka), nullptr);  // sets A's reference bit
  bytes = tile_bytes(100, 3);
  cache.insert(kc, bytes);
  EXPECT_NE(cache.find(ka), nullptr) << "referenced tile was evicted";
  EXPECT_EQ(cache.find(kb), nullptr) << "unreferenced tile survived";
  EXPECT_NE(cache.find(kc), nullptr);
}

// --- Workload generator ------------------------------------------------------

TEST(Workload, DeterministicAndSkewed) {
  serve::WorkloadSpec spec;
  spec.n = 1000;
  spec.queries = 5000;
  spec.zipf_s = 1.2;
  spec.seed = 9;
  const QueryBatch a = serve::make_workload(spec);
  const QueryBatch b = serve::make_workload(spec);
  ASSERT_EQ(a.size(), 5000u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.pairs[i].src, b.pairs[i].src);
    EXPECT_EQ(a.pairs[i].dst, b.pairs[i].dst);
  }
  // Zipf(1.2): the top-10 ids must dominate; uniform would give ~1%.
  std::size_t top = 0;
  for (const PathQuery& q : a.pairs) top += q.src < 10 ? 1 : 0;
  EXPECT_GT(top, a.size() / 3);

  spec.zipf_s = 0.0;
  const QueryBatch u = serve::make_workload(spec);
  std::size_t utop = 0;
  for (const PathQuery& q : u.pairs) utop += q.src < 10 ? 1 : 0;
  EXPECT_LT(utop, a.size() / 20);
}

// --- ApspResult query API ----------------------------------------------------

TEST(QueryApi, StatusDistinguishesUnreachableFromNotTracked) {
  // 0 -> 1 -> 2, vertex 3 isolated.
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  ApspOptions opt;
  opt.track_paths = true;
  const auto tracked = apsp<MinPlus<double>>(g, opt);

  auto r = tracked.query(0, 2);
  EXPECT_EQ(r.status, PathStatus::kFound);
  EXPECT_EQ(r.distance, 5.0);
  EXPECT_EQ(r.path, (std::vector<std::int64_t>{0, 1, 2}));
  r = tracked.query(0, 3);
  EXPECT_EQ(r.status, PathStatus::kUnreachable);
  EXPECT_EQ(r.distance, value_traits<double>::infinity());
  EXPECT_TRUE(r.path.empty());
  r = tracked.query(3, 3);  // self-query is found even on an isolate
  EXPECT_EQ(r.status, PathStatus::kFound);
  EXPECT_EQ(r.path, (std::vector<std::int64_t>{3}));
  r = tracked.query(0, 2, /*want_path=*/false);
  EXPECT_EQ(r.status, PathStatus::kFound);
  EXPECT_TRUE(r.path.empty());

  const auto untracked = apsp<MinPlus<double>>(g, {});
  r = untracked.query(0, 2);
  EXPECT_EQ(r.status, PathStatus::kNotTracked);
  EXPECT_EQ(r.distance, 5.0);
  r = untracked.query(0, 3);
  EXPECT_EQ(r.status, PathStatus::kNotTracked) << "distance-only results "
                                                  "cannot claim unreachable";

  QueryBatch batch;
  batch.add(0, 2);
  batch.add_one_to_many(1, std::vector<std::int64_t>{0, 2, 3});
  const auto results = tracked.answer(batch);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[1].status, PathStatus::kUnreachable);  // 1 -> 0
  EXPECT_EQ(results[2].path, (std::vector<std::int64_t>{1, 2}));
}

// --- Publish + serve round trip ---------------------------------------------

/// In-memory oracle + a store holding its published manifest. The store
/// lives behind a unique_ptr because MemoryCheckpointStore owns a mutex
/// and is therefore immovable.
struct Published {
  ApspResult<float> oracle;
  std::unique_ptr<MemoryCheckpointStore> store_ptr =
      std::make_unique<MemoryCheckpointStore>();
  MemoryCheckpointStore& store() { return *store_ptr; }
};

Published publish_case(std::size_t n, std::size_t b, int pr, int pc,
                       bool paths, std::uint64_t seed = 11,
                       double density = 0.35) {
  Published p;
  const Graph g = gen::erdos_renyi(static_cast<vertex_t>(n), density, seed);
  ApspOptions opt;
  opt.block_size = b;
  opt.track_paths = paths;
  p.oracle = apsp<S>(g, opt);
  serve::publish_result(p.store(), p.oracle, b, pr, pc);
  return p;
}

void expect_all_pairs_match(serve::PathService<S>& service,
                            const ApspResult<float>& oracle, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const auto want = oracle.query(static_cast<std::int64_t>(i),
                                     static_cast<std::int64_t>(j));
      const auto got = service.query(static_cast<std::int64_t>(i),
                                     static_cast<std::int64_t>(j));
      ASSERT_EQ(got.status, want.status) << i << " -> " << j;
      ASSERT_EQ(got.distance, want.distance) << i << " -> " << j;
      ASSERT_EQ(got.path, want.path) << i << " -> " << j;
    }
}

TEST(PathService, AllPairsBitIdenticalUnderTinyCache) {
  // n=60, b=12: paths cross tile boundaries constantly. The budget holds
  // just two tiles, so the walk evicts mid-path — correctness must not
  // depend on residency.
  Published p = publish_case(60, 12, 2, 2, /*paths=*/true);
  serve::ServeOptions sopt;
  sopt.cache_budget_bytes = 2 * 12 * 12 * sizeof(std::int64_t);
  serve::PathService<S> service(p.store(), sopt);
  expect_all_pairs_match(service, p.oracle, 60);
  EXPECT_GT(service.cache_stats().evictions, 0u);
  EXPECT_LE(service.cache_stats().bytes_peak, sopt.cache_budget_bytes);
}

TEST(PathService, ServiceCacheDeterministicAcrossInstances) {
  Published p = publish_case(48, 8, 1, 2, /*paths=*/true);
  serve::WorkloadSpec wspec;
  wspec.n = 48;
  wspec.queries = 600;
  wspec.zipf_s = 0.9;
  wspec.seed = 4;
  const QueryBatch batch = serve::make_workload(wspec);
  serve::ServeOptions sopt;
  sopt.cache_budget_bytes = 6 * 8 * 8 * sizeof(std::int64_t);
  sopt.admission = CacheAdmission::kSecondTouch;
  serve::PathService<S> s1(p.store(), sopt), s2(p.store(), sopt);
  const auto r1 = s1.answer(batch);
  const auto r2 = s2.answer(batch);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) ASSERT_EQ(r1[i].path, r2[i].path);
  EXPECT_EQ(s1.cache_stats().hits, s2.cache_stats().hits);
  EXPECT_EQ(s1.cache_stats().misses, s2.cache_stats().misses);
  EXPECT_EQ(s1.cache_stats().evictions, s2.cache_stats().evictions);
  EXPECT_LE(s1.cache_stats().bytes_peak, sopt.cache_budget_bytes);
}

TEST(PathService, ValuesOnlyManifestHardErrorsOnPathQueries) {
  Published p = publish_case(40, 8, 1, 1, /*paths=*/false);
  serve::PathService<S> service(p.store());
  // Distance-only batches are fine...
  auto r = service.query(0, 7, /*want_path=*/false);
  EXPECT_EQ(r.status, PathStatus::kNotTracked);
  EXPECT_EQ(r.distance, p.oracle.dist(0, 7));
  // ...but asking for a path must fail loudly, mirroring the PR 7 resume
  // rule for value-only blobs.
  try {
    service.query(0, 7, /*want_path=*/true);
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("values-only manifest"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("track_paths"), std::string::npos);
  }
}

TEST(ServeManifest, RejectsMidRunCheckpointStores) {
  // A checkpointed run that NEVER published: the store holds a mid-run
  // committed cut (k0 < nb). Serving it would answer half-closed
  // distances — open() must refuse.
  const std::size_t n = 64, b = 16;
  DenseEntryGen<float> gen(321, 0.8, 1.0f, 50.0f, /*integral=*/true);
  const auto grid = dist::GridSpec::row_major(2, 2);
  dist::DistFwOptions opt;
  opt.block_size = b;
  MemoryCheckpointStore store;
  opt.resilience.checkpoint_every = 2;
  opt.resilience.store = &store;
  (void)dist::run_parallel_fw<S>(n, gen, grid, 2, opt);
  ASSERT_TRUE(dist::read_commit(store).has_value());
  EXPECT_THROW(serve::ServeManifest::open(store), check_error);
  try {
    serve::ServeManifest::open(store);
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("mid-run"), std::string::npos)
        << e.what();
  }
}

TEST(ServeManifest, RejectsEmptyStore) {
  MemoryCheckpointStore store;
  EXPECT_THROW(serve::ServeManifest::open(store), check_error);
}

TEST(ServeManifest, CorruptCommitIsNotReportedAsUnpublished) {
  // A present but corrupt commit record is a damaged store, not a run
  // that never published.
  MemoryCheckpointStore store;
  store.put(dist::kCommitKey, std::vector<std::uint8_t>(7, 0xab));
  try {
    serve::ServeManifest::open(store);
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt commit record"), std::string::npos) << what;
    EXPECT_EQ(what.find("publish?"), std::string::npos) << what;
  }
}

TEST(ServeManifest, RejectsHostileCounts) {
  // The store is outside input. A commit record (or rank 0's blob) that
  // promises billions of ranks must fail on the first missing blob, not
  // size per-rank tables by the promise first.
  auto expect_missing_rank = [](const CheckpointStore& store, int rank) {
    try {
      serve::ServeManifest::open(store);
      FAIL() << "expected check_error";
    } catch (const check_error& e) {
      const std::string want = "manifest names rank " + std::to_string(rank);
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  };
  dist::CommitRecord commit;
  commit.n = 4;
  commit.block_size = 2;
  commit.k0 = 2;

  // Only the commit record, naming 2^32 - 1 ranks.
  {
    MemoryCheckpointStore store;
    commit.world_size = 0xffffffffu;
    dist::write_commit(store, commit);
    expect_missing_rank(store, 0);
  }
  // A well-formed rank-0 blob on a 65536 x 65535 grid that matches the
  // commit's world size; rank 1 is missing.
  {
    MemoryCheckpointStore store;
    commit.world_size = 65536u * 65535u;
    dist::write_commit(store, commit);
    dist::CheckpointHeader h;
    h.elem_size = sizeof(float);
    h.n = commit.n;
    h.next_block = commit.k0;
    h.block_size = commit.block_size;
    dist::CheckpointExt ext;
    ext.grid_rows = 65536;
    ext.grid_cols = 65535;
    ext.tile_count = 1;
    const std::vector<std::uint8_t> tile(
        commit.block_size * commit.block_size * sizeof(float), 0);
    dist::CheckpointTileRef ref;  // global (0, 0)
    ref.value_crc32c = crc32c(tile);
    std::vector<std::uint8_t> blob(sizeof(h) + sizeof(ext) + sizeof(ref));
    std::memcpy(blob.data(), &h, sizeof(h));
    std::memcpy(blob.data() + sizeof(h), &ext, sizeof(ext));
    std::memcpy(blob.data() + sizeof(h) + sizeof(ext), &ref, sizeof(ref));
    const std::uint64_t header_crc = crc32c(blob);
    const auto* seal = reinterpret_cast<const std::uint8_t*>(&header_crc);
    blob.insert(blob.end(), seal, seal + sizeof(header_crc));
    blob.insert(blob.end(), tile.begin(), tile.end());
    store.put(dist::rank_checkpoint_key(commit.k0, 0), blob);
    expect_missing_rank(store, 1);
  }
}

// --- Served == oracle across the distributed matrix --------------------------

struct ServeCase {
  sched::Variant variant;
  bool tiled;
};

// Names the instances in test ids (e.g. async_tiled). Without it gtest
// prints the struct's raw bytes, padding included, which differ between
// builds.
void PrintTo(const ServeCase& c, std::ostream* os) {
  *os << sched::variant_name(c.variant) << (c.tiled ? "_tiled" : "_naive");
}

class ServedCrashResume : public ::testing::TestWithParam<ServeCase> {};

TEST_P(ServedCrashResume, ServedBitIdenticalToGatheredOracle) {
  // The manifest under test is written by a run that CRASHED, resumed
  // from a committed cut, finished, and was then published by the driver
  // — the full production lifecycle. Its pred matrix must be the witness
  // of its closed matrix, and every served answer must match the
  // in-memory oracle built from the gathered matrices bit for bit.
  const ServeCase c = GetParam();
  const std::size_t n = 96, b = 16;
  DenseEntryGen<float> gen(6100 + static_cast<std::uint64_t>(c.variant),
                           0.85, 1.0f, 90.0f, /*integral=*/true);
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
  sched::ScheduleParams sp;
  sp.variant = c.variant;
  sp.nb = n / b;
  sp.b = b;
  sp.word_bytes = sizeof(float);
  sp.checkpoint_every = 2;
  const auto schedule = sched::build_schedule(grid, sp);

  MemoryCheckpointStore store;
  opt.resilience.checkpoint_every = 2;
  opt.resilience.store = &store;
  opt.publish_store = &store;  // aliasing the resilience store is legal
  opt.faults.seed = 17;
  opt.faults.crash_rank = 1;
  opt.faults.crash_at_op =
      static_cast<std::int64_t>(schedule.steps.size() * 6 / 10);

  const auto run = dist::run_parallel_fw<S>(n, gen, grid, rpn, opt,
                                            /*track_paths=*/true);
  ASSERT_GE(run.restarts, 1) << "the injected crash must have fired";

  // The gathered pred is the witness of the gathered matrix.
  const auto want = witness_oracle<S>(gen.full(n).view(), run.dist.view());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(run.pred(i, j), want(i, j)) << i << "," << j;
  ApspResult<float> oracle;
  oracle.dist = run.dist.clone();
  oracle.pred.emplace(run.pred.clone());

  serve::ServeOptions sopt;
  sopt.cache_budget_bytes = 24 * b * b * sizeof(std::int64_t);
  serve::PathService<S> service(store, sopt);
  EXPECT_EQ(service.manifest().world_size(), 4u);
  expect_all_pairs_match(service, oracle, n);
  EXPECT_LE(service.cache_stats().bytes_peak, sopt.cache_budget_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsBothPlacements, ServedCrashResume,
    ::testing::Values(ServeCase{sched::Variant::kBaseline, false},
                      ServeCase{sched::Variant::kPipelined, false},
                      ServeCase{sched::Variant::kAsync, false},
                      ServeCase{sched::Variant::kOffload, false},
                      ServeCase{sched::Variant::kBaseline, true},
                      ServeCase{sched::Variant::kPipelined, true},
                      ServeCase{sched::Variant::kAsync, true},
                      ServeCase{sched::Variant::kOffload, true}));

TEST(ServeFrontDoor, SolvePublishesThroughDistStrategyIncludingAuto) {
  // The solve() front door: DistStrategy::publish_store flows into the
  // driver; the served answers match the returned result — with an
  // explicit variant and with kAuto (tuner-resolved schedule).
  const Graph g = gen::erdos_renyi(96, 0.3, 23);
  for (const bool use_auto : {false, true}) {
    ApspOptions opt;
    opt.algorithm = ApspAlgorithm::kDistributed;
    opt.block_size = 16;
    opt.track_paths = true;
    opt.dist.grid_rows = opt.dist.grid_cols = 2;
    opt.dist.variant =
        use_auto ? sched::Variant::kAuto : sched::Variant::kPipelined;
    MemoryCheckpointStore store;
    opt.dist.publish_store = &store;
    const auto result = solve<MinPlus<double>>(g, opt);

    serve::PathService<MinPlus<double>> service(store);
    serve::WorkloadSpec wspec;
    wspec.n = 96;
    wspec.queries = 400;
    wspec.zipf_s = 1.1;
    wspec.seed = 31;
    const QueryBatch batch = serve::make_workload(wspec);
    const auto want = result.answer(batch);
    const auto got = service.answer(batch);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].status, want[i].status) << "auto=" << use_auto;
      ASSERT_EQ(got[i].distance, want[i].distance) << "auto=" << use_auto;
      ASSERT_EQ(got[i].path, want[i].path) << "auto=" << use_auto;
    }
  }
}

TEST(ServeFrontDoor, FileStoreServesPublishedManifest) {
  // End-to-end through FileCheckpointStore: exercises the positioned-read
  // get_ranges override against real files.
  const auto dir =
      std::filesystem::temp_directory_path() / "parfw_serve_file_store";
  std::filesystem::remove_all(dir);
  FileCheckpointStore store(dir);
  const Graph g = gen::erdos_renyi(48, 0.3, 5);
  ApspOptions opt;
  opt.block_size = 8;
  opt.track_paths = true;
  const auto oracle = apsp<S>(g, opt);
  serve::publish_result(store, oracle, 8, 2, 2);

  serve::ServeOptions sopt;
  sopt.cache_budget_bytes = 4 * 8 * 8 * sizeof(std::int64_t);
  serve::PathService<S> service(store, sopt);
  expect_all_pairs_match(service, oracle, 48);
  std::filesystem::remove_all(dir);
}

// --- Serving observability (DESIGN.md §4.13) ---------------------------------

TEST(TileCache, GhostHitsCounted) {
  // Only a ghost-window second touch bumps ghost_hits; kAlways admissions
  // never do — that distinction is the signal the admission tuner reads.
  TileCache cache(TileCacheConfig{/*budget_bytes=*/4096,
                                  CacheAdmission::kSecondTouch});
  const TileKey key{TileKind::kValue, 1, 2};
  auto bytes = tile_bytes(64, 5);
  EXPECT_EQ(cache.insert(key, bytes), nullptr);  // first touch: ghost only
  EXPECT_EQ(cache.stats().ghost_hits, 0u);
  EXPECT_NE(cache.insert(key, bytes), nullptr);  // second touch: admitted
  EXPECT_EQ(cache.stats().ghost_hits, 1u);
  EXPECT_EQ(cache.stats().admitted, 1u);

  TileCache always(TileCacheConfig{/*budget_bytes=*/4096,
                                   CacheAdmission::kAlways});
  auto more = tile_bytes(64, 6);
  EXPECT_NE(always.insert(key, more), nullptr);
  EXPECT_EQ(always.stats().ghost_hits, 0u);
}

TEST(QTrace, SpanTreeTilesQueryWindow) {
  // The acceptance gate of §4.13: every query's stage intervals tile its
  // span exactly (in-memory capture, so ZERO tolerance up to FP identity),
  // and the serve.stage.* histograms reconcile with serve.query.latency.
  Published p = publish_case(60, 12, 2, 2, /*paths=*/true);
  sched::CollectTraceSink sink;
  telemetry::Registry reg;
  serve::ServeOptions sopt;
  // Two pred tiles: the walk thrashes, so route/cache/io/walk all appear.
  sopt.cache_budget_bytes = 2 * 12 * 12 * sizeof(std::int64_t);
  sopt.trace = &sink;
  sopt.metrics = &reg;
  serve::PathService<S> service(p.store(), sopt);

  serve::WorkloadSpec wspec;
  wspec.n = 60;
  wspec.queries = 300;
  wspec.zipf_s = 0.8;
  wspec.seed = 3;
  const QueryBatch batch = serve::make_workload(wspec);
  ASSERT_EQ(service.answer(batch).size(), batch.size());

  const serve::ServeTraceReport r =
      serve::analyze_serve_trace(sink.events(), /*tolerance=*/1e-9);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.num_queries, 300);
  EXPECT_GT(r.min_coverage, 0.9999);
  EXPECT_LE(r.max_gap, 1e-9);

  telemetry::Histogram& lat = reg.histogram("serve.query.latency");
  EXPECT_EQ(lat.count(), 300u);
  EXPECT_EQ(reg.histogram("serve.queue.wait").count(), 300u);
  double stage_sum = 0.0;
  for (int s = 0; s < serve::kNumStages; ++s) {
    telemetry::Histogram& h = reg.histogram(
        std::string("serve.stage.") +
        serve::stage_name(static_cast<serve::Stage>(s)) + ".latency");
    // Zero stage times are observed too, so per-stage counts match the
    // query count and rates stay comparable across stages.
    EXPECT_EQ(h.count(), 300u);
    stage_sum += h.sum();
  }
  EXPECT_NEAR(stage_sum, lat.sum(), 0.01 * lat.sum());
  EXPECT_NEAR(r.total_seconds, lat.sum(), 1e-12 + 1e-9 * lat.sum());
}

TEST(QTrace, TileMissCostsPublished) {
  // Every cache miss is attributed to its tile: the published
  // serve.tile.miss.fetches gauges sum to exactly the cache's miss count,
  // and every fetched tile carries its read bytes and IO time.
  Published p = publish_case(48, 8, 1, 1, /*paths=*/true);
  telemetry::Registry reg;
  serve::ServeOptions sopt;
  sopt.cache_budget_bytes = 4 * 8 * 8 * sizeof(std::int64_t);
  sopt.metrics = &reg;
  serve::PathService<S> service(p.store(), sopt);

  serve::WorkloadSpec wspec;
  wspec.n = 48;
  wspec.queries = 400;
  wspec.zipf_s = 1.0;
  wspec.seed = 7;
  const QueryBatch batch = serve::make_workload(wspec);
  ASSERT_EQ(service.answer(batch).size(), batch.size());
  ASSERT_GT(service.cache_stats().misses, 0u);

  double gauge_fetches = 0.0;
  int fetched_tiles = 0, tiles_with_bytes = 0, tiles_with_seconds = 0;
  for (const telemetry::MetricRow& row : reg.snapshot()) {
    if (row.name == "serve.tile.miss.fetches") {
      gauge_fetches += row.value;
      fetched_tiles += row.value > 0.0 ? 1 : 0;
    }
    if (row.name == "serve.tile.miss.bytes")
      tiles_with_bytes += row.value > 0.0 ? 1 : 0;
    if (row.name == "serve.tile.miss.seconds")
      tiles_with_seconds += row.value > 0.0 ? 1 : 0;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(gauge_fetches),
            service.cache_stats().misses);
  EXPECT_GT(fetched_tiles, 0);
  EXPECT_EQ(tiles_with_bytes, fetched_tiles);
  EXPECT_EQ(tiles_with_seconds, fetched_tiles);
}

TEST(QTrace, ChromeTraceRoundTrip) {
  // Serve spans written as a Chrome trace survive the causal loader: the
  // reassembled span trees still tile (within the µs-rounding tolerance)
  // and causal::build_graph/analyze consume them unchanged.
  Published p = publish_case(48, 8, 1, 2, /*paths=*/true);
  sched::CollectTraceSink sink;
  serve::ServeOptions sopt;
  sopt.cache_budget_bytes = 4 * 8 * 8 * sizeof(std::int64_t);
  sopt.trace = &sink;
  serve::PathService<S> service(p.store(), sopt);

  serve::WorkloadSpec wspec;
  wspec.n = 48;
  wspec.queries = 150;
  wspec.zipf_s = 0.0;
  wspec.seed = 19;
  const QueryBatch batch = serve::make_workload(wspec);
  ASSERT_EQ(service.answer(batch).size(), batch.size());

  std::ostringstream os;
  sink.write_chrome(os);
  const causal::LoadResult loaded = causal::load_chrome_trace(os.str());
  ASSERT_TRUE(loaded.ok) << loaded.error;

  const serve::ServeTraceReport r = serve::analyze_serve_trace(loaded.events);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.num_queries, 150);
  EXPECT_GT(r.min_coverage, 0.99);
  EXPECT_FALSE(format_serve_report(r).empty());

  causal::Graph g = causal::build_graph(loaded.events);
  causal::BlameReport blame;
  std::string err;
  ASSERT_TRUE(causal::analyze(g, {}, &blame, &err)) << err;
  EXPECT_GT(blame.span, 0.0);
  ASSERT_FALSE(blame.by_phase.empty());
  for (const auto& [phase, totals] : blame.by_phase) {
    (void)totals;
    EXPECT_TRUE(phase == "route" || phase == "cache" || phase == "io" ||
                phase == "walk" || phase == "query")
        << "unexpected serve phase: " << phase;
  }
}

/// Wraps a published store and adds a fixed delay to every ranged read —
/// the injected slow-IO stage of the tail-attribution test.
class SlowRangeStore final : public CheckpointStore {
 public:
  SlowRangeStore(const CheckpointStore& inner, std::chrono::microseconds d)
      : inner_(inner), delay_(d) {}
  void put(const std::string&, std::span<const std::uint8_t>) override {
    PARFW_CHECK_MSG(false, "SlowRangeStore is read-only");
  }
  std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) const override {
    return inner_.get(key);
  }
  void erase(const std::string&) override {
    PARFW_CHECK_MSG(false, "SlowRangeStore is read-only");
  }
  std::vector<std::string> keys() const override { return inner_.keys(); }
  bool get_ranges(const std::string& key, std::span<const ByteRange> ranges,
                  std::uint8_t* out) const override {
    std::this_thread::sleep_for(delay_);
    return inner_.get_ranges(key, ranges, out);
  }

 private:
  const CheckpointStore& inner_;
  std::chrono::microseconds delay_;
};

TEST(QTrace, SlowIoDominatesTailAttribution) {
  // Inject a 200 µs penalty on every store read under a two-tile cache:
  // the p99 tail attribution must blame the io stage — the property the
  // trace_analyze --mode serve blame split stands on.
  Published p = publish_case(48, 8, 2, 2, /*paths=*/true);
  SlowRangeStore slow(p.store(), std::chrono::microseconds(200));
  sched::CollectTraceSink sink;
  serve::ServeOptions sopt;
  sopt.cache_budget_bytes = 2 * 8 * 8 * sizeof(std::int64_t);
  sopt.trace = &sink;
  serve::PathService<S> service(slow, sopt);

  serve::WorkloadSpec wspec;
  wspec.n = 48;
  wspec.queries = 200;
  wspec.zipf_s = 0.0;
  wspec.seed = 29;
  const QueryBatch batch = serve::make_workload(wspec);
  ASSERT_EQ(service.answer(batch).size(), batch.size());
  ASSERT_GT(service.cache_stats().misses, 0u);

  const serve::ServeTraceReport r =
      serve::analyze_serve_trace(sink.events(), /*tolerance=*/1e-9);
  ASSERT_TRUE(r.ok) << r.error;
  const int io = static_cast<int>(serve::Stage::kIo);
  EXPECT_GT(r.tail_share[static_cast<std::size_t>(io)], 0.5);
  for (int s = 0; s < serve::kNumStages; ++s) {
    if (s == io) continue;
    EXPECT_GT(r.tail_share[static_cast<std::size_t>(io)],
              r.tail_share[static_cast<std::size_t>(s)])
        << "stage " << serve::stage_name(static_cast<serve::Stage>(s));
  }
}

TEST(Slo, MonitorReportsAndSlowLog) {
  serve::SloConfig cfg;
  cfg.p99_target_s = 0.010;
  cfg.window = 256;
  cfg.slow_log_capacity = 3;
  serve::SloMonitor mon(cfg);
  auto q = [](std::int64_t id, double total) {
    serve::QueryStats s;
    s.qid = id;
    s.total = total;
    s.stage[static_cast<std::size_t>(serve::Stage::kIo)] = total * 0.8;
    s.stage[static_cast<std::size_t>(serve::Stage::kWalk)] = total * 0.2;
    return s;
  };
  for (int i = 0; i < 100; ++i) mon.record(q(i, 0.001));
  for (int i = 0; i < 5; ++i) mon.record(q(100 + i, 0.050));

  const serve::SloReport r = mon.report();
  EXPECT_EQ(r.total, 105u);
  EXPECT_EQ(r.window_count, 105u);
  EXPECT_EQ(r.violations, 5u);
  EXPECT_TRUE(r.p50_ok);  // no p50 target configured
  EXPECT_FALSE(r.p99_ok) << "5/105 > 1% must push the window p99 over "
                            "the 10 ms target";
  EXPECT_NEAR(r.burn_rate, (5.0 / 105.0) / 0.01, 1e-9);

  // The slow log is capacity-bounded and keeps the most recent entries,
  // each with its full stage breakdown.
  ASSERT_EQ(mon.slow_log().size(), 3u);
  EXPECT_EQ(mon.slow_log().front().qid, 102);
  EXPECT_EQ(mon.slow_log().back().qid, 104);
  EXPECT_GT(mon.slow_log().back().stage[static_cast<std::size_t>(
                serve::Stage::kIo)],
            0.0);

  telemetry::Registry reg;
  mon.publish(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.violations").value(), 5.0);
  EXPECT_GT(reg.gauge("serve.slo.burn_rate").value(), 1.0);

  EXPECT_NE(format_slo_report(r).find("VIOLATED"), std::string::npos);
  EXPECT_NE(format_slow_log(mon).find("qid 104"), std::string::npos);
}

TEST(Slo, BurnAlertFiresOnceOnUpwardCrossing) {
  // The alert is edge-triggered: one callback when the window burn rate
  // crosses the threshold upward, silence while it stays high, re-armed
  // only after the burn drops back under.
  serve::SloConfig cfg;
  cfg.p99_target_s = 0.010;
  cfg.budget = 0.01;
  cfg.window = 64;
  int alerts = 0;
  serve::SloReport last;
  cfg.on_burn_alert = [&](const serve::SloReport& r) {
    ++alerts;
    last = r;
  };
  serve::SloMonitor mon(cfg);
  auto q = [](std::int64_t id, double total) {
    serve::QueryStats s;
    s.qid = id;
    s.total = total;
    return s;
  };
  for (int i = 0; i < 32; ++i) mon.record(q(i, 0.001));
  EXPECT_EQ(alerts, 0);
  // A burst of violations pushes the burn over 1.0 — exactly one alert
  // even though every later violation keeps it there.
  for (int i = 0; i < 8; ++i) mon.record(q(100 + i, 0.050));
  EXPECT_EQ(alerts, 1);
  EXPECT_GT(last.burn_rate, cfg.burn_alert_threshold);
  // Fast queries push the violations out of the window: burn drops,
  // the alert re-arms, and a fresh burst fires again.
  for (int i = 0; i < 128; ++i) mon.record(q(200 + i, 0.001));
  EXPECT_EQ(alerts, 1);
  for (int i = 0; i < 8; ++i) mon.record(q(400 + i, 0.050));
  EXPECT_EQ(alerts, 2);
}

TEST(Slo, SloOnlyConfigStillMeasures) {
  // An SLO monitor without a sink or registry must still see real
  // breakdowns: the force flag keeps the tracer measuring.
  Published p = publish_case(32, 8, 1, 1, /*paths=*/true);
  serve::SloConfig slo_cfg;
  slo_cfg.p99_target_s = 10.0;
  serve::SloMonitor mon(slo_cfg);
  serve::ServeOptions sopt;
  sopt.slo = &mon;
  serve::PathService<S> service(p.store(), sopt);
  QueryBatch batch;
  for (int i = 0; i < 8; ++i) batch.add(i, 31 - i);
  ASSERT_EQ(service.answer(batch).size(), batch.size());
  const serve::SloReport r = mon.report();
  EXPECT_EQ(r.total, 8u);
  EXPECT_GT(r.p50, 0.0);
  EXPECT_TRUE(r.p99_ok);
  EXPECT_EQ(r.violations, 0u);
}

}  // namespace
}  // namespace parfw
