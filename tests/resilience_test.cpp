// Resilience subsystem tests (DESIGN.md "Resilience"): CheckpointStore
// round-trips, checkpoint v2 format and hostile-header rejection, crash-restart
// bit-identity for every ParallelFw variant on both placements, retry
// completion under seeded message drops, and the parfw::solve front door.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/checkpoint_store.hpp"
#include "core/floyd_warshall.hpp"
#include "dist/checkpoint.hpp"
#include "dist/driver.hpp"
#include "dist/solve.hpp"
#include "graph/generators.hpp"
#include "sched/trace.hpp"

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

// --- Checkpoint format: v2 round trip, hostile headers ----------------------

/// Hand-assemble a single-matrix blob: `h`, a default extension unless
/// `with_ext` is false, then `payload_floats` floats of payload.
std::string hand_built_blob(const CheckpointHeader& h, bool with_ext,
                            std::size_t payload_floats) {
  std::ostringstream os(std::ios::binary);
  os.write(reinterpret_cast<const char*>(&h), sizeof h);
  if (with_ext) {
    const CheckpointExtV2 ext;
    os.write(reinterpret_cast<const char*>(&ext), sizeof ext);
  }
  const std::vector<float> payload(payload_floats, 1.0f);
  os.write(reinterpret_cast<const char*>(payload.data()),
           static_cast<std::streamsize>(payload.size() * sizeof(float)));
  return std::move(os).str();
}

/// Load `blob` as a float checkpoint; returns the check_error message
/// ("" when the load succeeded).
std::string load_error(const std::string& blob) {
  std::istringstream is(blob, std::ios::binary);
  try {
    (void)load_checkpoint<float>(is);
  } catch (const check_error& e) {
    return e.what();
  }
  return "";
}

CheckpointHeader float_header(std::uint64_t n) {
  CheckpointHeader h;
  h.elem_size = sizeof(float);
  h.n = n;
  h.next_block = 1;
  h.block_size = 2;
  return h;
}

TEST(CheckpointFormat, V1StreamsAreRejected) {
  // The version-1 layout: the 40-byte header followed immediately by the
  // row-major payload, no extension.
  CheckpointHeader h = float_header(4);
  h.version = 1;
  const std::string err = load_error(hand_built_blob(h, false, 16));
  EXPECT_NE(err.find("version 1"), std::string::npos) << err;
}

TEST(CheckpointFormat, HostileHeadersAreRejected) {
  // 2^32: n*n wraps to 0 in 64 bits. 2^31: n*n*sizeof(float) wraps.
  // 5: fits in 64 bits but needs more payload than the 4x4 blob holds.
  for (std::uint64_t n : {std::uint64_t{1} << 32, std::uint64_t{1} << 31,
                          std::uint64_t{5}}) {
    const std::string err =
        load_error(hand_built_blob(float_header(n), true, 16));
    EXPECT_NE(err.find("n = " + std::to_string(n)), std::string::npos)
        << "n=" << n << ": " << err;
  }
  CheckpointHeader zero_block = float_header(4);
  zero_block.block_size = 0;
  const std::string err = load_error(hand_built_blob(zero_block, true, 16));
  EXPECT_NE(err.find("block size"), std::string::npos) << err;
  EXPECT_EQ(load_error(hand_built_blob(float_header(4), true, 16)), "");
}

TEST(CheckpointFormat, V2RoundTripThroughStore) {
  const std::size_t n = 6, b = 3;
  Matrix<double> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = 0.5 * static_cast<double>(i) - static_cast<double>(j);

  MemoryCheckpointStore store;
  const std::size_t bytes = save_checkpoint<double>(
      store, "snap", MatrixView<const double>(m.view()), /*next_block=*/2, b);
  EXPECT_GT(bytes, n * n * sizeof(double));  // header + payload

  const auto loaded = load_checkpoint<double>(store, "snap");
  EXPECT_EQ(loaded.next_block, 2u);
  EXPECT_EQ(loaded.block_size, b);
  EXPECT_EQ(max_abs_diff<double>(m.view(), loaded.dist.view()), 0.0);
}

TEST(CheckpointFormat, PredPayloadRoundTripAndValueOnlyCompat) {
  // Per-rank blobs carry the pred tiles after the value payload, keyed by
  // the repurposed (formerly always-zero) reserved word — so old blobs
  // read as "values only" and a values reader can skip a pred payload.
  const std::size_t n = 24, b = 4;
  const auto grid = dist::GridSpec::row_major(2, 2);
  DenseEntryGen<float> gen(303, 0.8, 1.0f, 50.0f, /*integral=*/true);

  for (int w = 0; w < grid.size(); ++w) {
    const auto me = grid.coord_of(w);
    dist::BlockCyclicMatrix<float> a(n, b, grid, me);
    dist::BlockCyclicMatrix<std::int64_t> p(n, b, grid, me);
    a.fill(gen);
    dist::init_predecessors_dist<S>(a, p);

    MemoryCheckpointStore store;
    dist::SchedulePosition pos;
    pos.k0 = 3;
    pos.sched_op_index = 17;
    dist::save_rank_checkpoint<float>(store, a, pos, &p);

    // Paths round trip: both payloads restored bit-identically.
    dist::BlockCyclicMatrix<float> a2(n, b, grid, me);
    dist::BlockCyclicMatrix<std::int64_t> p2(n, b, grid, me);
    const auto got = dist::load_rank_checkpoint<float>(store, 3, a2, &p2);
    EXPECT_EQ(got.k0, 3u);
    EXPECT_EQ(got.sched_op_index, 17u);
    EXPECT_EQ(max_abs_diff<float>(a.local().view(), a2.local().view()), 0.0);
    std::size_t mism = 0;
    for (std::size_t i = 0; i < p.local().rows(); ++i)
      for (std::size_t j = 0; j < p.local().cols(); ++j)
        if (p.local()(i, j) != p2.local()(i, j)) ++mism;
    EXPECT_EQ(mism, 0u) << "rank " << w;

    // A values-only reader may consume a pred-carrying blob (trailing
    // payload unread)...
    dist::BlockCyclicMatrix<float> a3(n, b, grid, me);
    dist::load_rank_checkpoint<float>(store, 3, a3);
    EXPECT_EQ(max_abs_diff<float>(a.local().view(), a3.local().view()), 0.0);

    // ...but a paths resume from a values-only blob must be a hard error:
    // predecessors cannot be reconstructed from distances.
    MemoryCheckpointStore vstore;
    dist::save_rank_checkpoint<float>(vstore, a, pos);
    dist::BlockCyclicMatrix<float> a4(n, b, grid, me);
    dist::BlockCyclicMatrix<std::int64_t> p4(n, b, grid, me);
    EXPECT_THROW(dist::load_rank_checkpoint<float>(vstore, 3, a4, &p4),
                 std::exception);
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

  // Corrupt blobs are rejected, not misread.
  store.put(dist::kCommitKey, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_FALSE(dist::read_commit(store).has_value());
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
  // Paths runs go through the SAME supervision loop: a crash past a
  // committed cut restores distances AND predecessors from the blob, and
  // the finished pred matrix must match the single-node blocked oracle
  // bit-for-bit — exactly as an uninterrupted paths run does.
  const CrashCase c = GetParam();
  const std::size_t n = 96, b = 16;
  DenseEntryGen<float> gen(5242 + static_cast<std::uint64_t>(c.variant),
                           0.85, 1.0f, 90.0f, /*integral=*/true);
  auto exp_dist = gen.full(static_cast<vertex_t>(n));
  Matrix<std::int64_t> exp_pred(n, n);
  init_predecessors<S>(exp_dist.view(), exp_pred.view());
  blocked_floyd_warshall_paths<S>(exp_dist.view(), exp_pred.view(), b);

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

  // The crash coordinate indexes the PATHS schedule (pred companion ops
  // included), so build it with pred_word_bytes set.
  sched::ScheduleParams sp;
  sp.variant = c.variant;
  sp.nb = n / b;
  sp.b = b;
  sp.word_bytes = sizeof(float);
  sp.pred_word_bytes = sizeof(std::int64_t);
  sp.checkpoint_every = 2;
  const auto schedule = sched::build_schedule(grid, sp);
  const auto crash_at =
      static_cast<std::int64_t>(schedule.steps.size() * 6 / 10);

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
      if (result.pred(i, j) != exp_pred(i, j)) ++mismatches;
  EXPECT_EQ(mismatches, 0u)
      << "variant=" << sched::variant_name(c.variant) << " tiled=" << c.tiled
      << " crash_at=" << crash_at;
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
  const auto r = solve<S>(g, opt);
  ASSERT_TRUE(r.pred.has_value());

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
