// Distributed FW tests: every variant on several grids and placements
// against the sequential oracle; block-cyclic layout; traffic properties
// (reordering reduces NIC bytes, ring vs tree volume).
#include <gtest/gtest.h>

#include <tuple>

#include "core/floyd_warshall.hpp"
#include "dist/block_cyclic.hpp"
#include "dist/driver.hpp"
#include "dist/grid.hpp"
#include "dist/parallel_fw.hpp"

#include "oracles.hpp"

namespace parfw::dist {
namespace {

using S = MinPlus<float>;

// --- GridSpec ---------------------------------------------------------------

TEST(GridSpec, RowMajorMapping) {
  const auto g = GridSpec::row_major(2, 3);
  EXPECT_EQ(g.size(), 6);
  EXPECT_EQ(g.world_rank({0, 0}), 0);
  EXPECT_EQ(g.world_rank({1, 2}), 5);
  EXPECT_EQ(g.coord_of(4), (GridCoord{1, 1}));
}

TEST(GridSpec, TiledMappingMatchesFigure1Structure) {
  // K=2x2 nodes, Q=2x2 ranks per node: ranks 0-3 on node 0 must occupy the
  // top-left 2x2 tile of the 4x4 grid.
  const auto g = GridSpec::tiled(2, 2, 2, 2);
  EXPECT_EQ(g.rows(), 4);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.world_rank({0, 0}), 0);
  EXPECT_EQ(g.world_rank({0, 1}), 1);
  EXPECT_EQ(g.world_rank({1, 0}), 2);
  EXPECT_EQ(g.world_rank({1, 1}), 3);
  EXPECT_EQ(g.world_rank({0, 2}), 4);  // node 1 starts at rank 4
  EXPECT_EQ(g.world_rank({2, 0}), 8);  // node 2 (second node row)
}

TEST(GridSpec, TiledIsPermutation) {
  const auto g = GridSpec::tiled(2, 3, 3, 2);
  std::vector<bool> seen(static_cast<std::size_t>(g.size()), false);
  for (int r = 0; r < g.rows(); ++r)
    for (int c = 0; c < g.cols(); ++c) {
      const int w = g.world_rank({r, c});
      EXPECT_FALSE(seen[static_cast<std::size_t>(w)]);
      seen[static_cast<std::size_t>(w)] = true;
      EXPECT_EQ(g.coord_of(w), (GridCoord{r, c}));
    }
}

// --- BlockCyclicMatrix --------------------------------------------------------

TEST(BlockCyclic, OwnershipAndIndexMaps) {
  const auto grid = GridSpec::row_major(2, 3);
  BlockCyclicMatrix<float> m(48, 8, grid, {1, 2});  // nb = 6
  EXPECT_EQ(m.local_block_rows(), 3u);  // rows 1,3,5
  EXPECT_EQ(m.local_block_cols(), 2u);  // cols 2,5
  EXPECT_TRUE(m.owns_block(3, 5));
  EXPECT_FALSE(m.owns_block(2, 5));
  EXPECT_EQ(m.local_row(5), 2u);
  EXPECT_EQ(m.global_col(1), 5u);
}

TEST(BlockCyclic, DimensionMustBeMultipleOfBlock) {
  const auto grid = GridSpec::row_major(1, 1);
  EXPECT_THROW(BlockCyclicMatrix<float>(50, 8, grid, {0, 0}), check_error);
}

TEST(BlockCyclic, LoadFillGatherRoundTrip) {
  const auto grid = GridSpec::row_major(2, 2);
  const std::size_t n = 32, b = 4;
  DenseEntryGen<float> gen(42, 0.8);
  const auto full = gen.full(n);
  Matrix<float> gathered;
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    BlockCyclicMatrix<float> local(n, b, grid, grid.coord_of(world.rank()));
    local.fill(gen);
    auto out = local.gather(world);
    if (world.rank() == 0) gathered = std::move(out);
  });
  ASSERT_EQ(gathered.rows(), n);
  EXPECT_EQ(max_abs_diff<float>(full.view(), gathered.view()), 0.0);
}

// --- parallel_fw correctness ---------------------------------------------------

Matrix<float> oracle(std::size_t n, const DenseEntryGen<float>& gen) {
  auto m = gen.full(static_cast<vertex_t>(n));
  floyd_warshall<S>(m.view());
  return m;
}

struct DistCase {
  int pr, pc;
  std::size_t n, b;
  Variant variant;
};

class ParallelFwParam : public ::testing::TestWithParam<DistCase> {};

TEST_P(ParallelFwParam, MatchesSequentialOracle) {
  const DistCase c = GetParam();
  DenseEntryGen<float> gen(1000 + c.n + static_cast<std::uint64_t>(c.pr),
                           0.85, 1.0f, 90.0f, /*integral=*/true);
  const auto expected = oracle(c.n, gen);

  const auto grid = GridSpec::row_major(c.pr, c.pc);
  DistFwOptions opt;
  opt.variant = c.variant;
  opt.block_size = c.b;
  if (c.variant == Variant::kOffload) {
    opt.oog.mx = opt.oog.nx = 16;
    opt.oog.num_streams = 2;
  }
  const auto result = run_parallel_fw<S>(c.n, gen, grid, /*ranks_per_node=*/2, opt);
  ASSERT_EQ(result.dist.rows(), c.n);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), result.dist.view()), 0.0)
      << "variant=" << variant_name(c.variant) << " grid=" << c.pr << "x"
      << c.pc << " n=" << c.n << " b=" << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelFwParam,
    ::testing::Values(
        // single rank sanity
        DistCase{1, 1, 32, 8, Variant::kBaseline},
        DistCase{1, 1, 32, 8, Variant::kAsync},
        // square grids
        DistCase{2, 2, 48, 8, Variant::kBaseline},
        DistCase{2, 2, 48, 8, Variant::kPipelined},
        DistCase{2, 2, 48, 8, Variant::kAsync},
        DistCase{2, 2, 48, 8, Variant::kOffload},
        DistCase{3, 3, 72, 8, Variant::kBaseline},
        DistCase{3, 3, 72, 8, Variant::kPipelined},
        DistCase{3, 3, 72, 8, Variant::kAsync},
        // rectangular grids, both orientations
        DistCase{2, 3, 48, 8, Variant::kBaseline},
        DistCase{2, 3, 48, 8, Variant::kAsync},
        DistCase{3, 2, 48, 8, Variant::kPipelined},
        DistCase{4, 2, 64, 8, Variant::kAsync},
        DistCase{1, 4, 32, 8, Variant::kAsync},
        DistCase{4, 1, 32, 8, Variant::kPipelined},
        // block size that leaves multiple blocks per rank in each dim
        DistCase{2, 2, 96, 12, Variant::kAsync},
        DistCase{2, 2, 64, 32, Variant::kBaseline},
        DistCase{2, 2, 64, 32, Variant::kOffload}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      const DistCase& c = info.param;
      return std::string(variant_name(c.variant)) + "_" +
             std::to_string(c.pr) + "x" + std::to_string(c.pc) + "_n" +
             std::to_string(c.n) + "_b" + std::to_string(c.b);
    });

TEST(ParallelFw, TiledPlacementAlsoCorrect) {
  const std::size_t n = 64, b = 8;
  DenseEntryGen<float> gen(77, 0.9, 1.0f, 100.0f, /*integral=*/true);
  const auto expected = oracle(n, gen);
  const auto grid = GridSpec::tiled(2, 2, 2, 2);  // 4x4 grid, 16 ranks
  DistFwOptions opt;
  opt.variant = Variant::kAsync;
  opt.block_size = b;
  const auto result =
      run_parallel_fw<S>(n, gen, grid, /*ranks_per_node=*/4, opt);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), result.dist.view()), 0.0);
}

TEST(ParallelFw, LogSquaringDiagMatches) {
  const std::size_t n = 48, b = 8;
  DenseEntryGen<float> gen(78, 1.0, 1.0f, 100.0f, /*integral=*/true);
  const auto expected = oracle(n, gen);
  const auto grid = GridSpec::row_major(2, 2);
  DistFwOptions opt;
  opt.variant = Variant::kPipelined;
  opt.block_size = b;
  opt.diag = DiagStrategy::kLogSquaring;
  const auto result = run_parallel_fw<S>(n, gen, grid, 2, opt);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), result.dist.view()), 0.0);
}

TEST(ParallelFw, SparseInputWithUnreachablePairs) {
  const std::size_t n = 48, b = 8;
  DenseEntryGen<float> gen(79, 0.05, 1.0f, 100.0f, /*integral=*/true);  // very sparse
  const auto expected = oracle(n, gen);
  const auto grid = GridSpec::row_major(2, 2);
  DistFwOptions opt;
  opt.variant = Variant::kAsync;
  opt.block_size = b;
  const auto result = run_parallel_fw<S>(n, gen, grid, 2, opt);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), result.dist.view()), 0.0);
}

// --- distributed path generation (values schedule + witness pass) -----------

struct DistPathsCase {
  Variant variant;
  bool tiled;
};

class DistPathsParam : public ::testing::TestWithParam<DistPathsCase> {};

// A distributed paths run must reproduce the scalar witness oracle over
// the closed matrix BIT-IDENTICALLY, and with it the single-node
// blocked_floyd_warshall_paths result. Every schedulable variant, on both
// placements.
TEST_P(DistPathsParam, PredMatrixBitIdenticalToBlockedOracle) {
  const DistPathsCase c = GetParam();
  const std::size_t n = 48, b = 8;
  DenseEntryGen<float> gen(
      5100 + static_cast<std::uint64_t>(c.variant) * 10 + (c.tiled ? 3 : 0),
      0.7, 1.0f, 60.0f, /*integral=*/true);

  // Single-node blocked solve with paths, same block size, and the
  // scalar witness oracle over its closed matrix.
  auto exp_dist = gen.full(static_cast<vertex_t>(n));
  Matrix<std::int64_t> exp_pred(n, n);
  blocked_floyd_warshall_paths<S>(exp_dist.view(), exp_pred.view(), b);
  const auto witness =
      witness_oracle<S>(gen.full(static_cast<vertex_t>(n)).view(),
                        exp_dist.view());

  // tiled: 2x1 node grid of 1x2 tiles — 2x2 process grid over two nodes,
  // so the node-aware ring/tree paths are exercised without a 16-rank run.
  const auto grid =
      c.tiled ? GridSpec::tiled(2, 1, 1, 2) : GridSpec::row_major(2, 2);
  DistFwOptions opt;
  opt.variant = c.variant;
  opt.block_size = b;
  if (c.variant == Variant::kOffload) {
    opt.oog.mx = opt.oog.nx = 16;
    opt.oog.num_streams = 2;
  }
  const auto run = run_parallel_fw<S>(n, gen, grid, 2, opt,
                                      /*track_paths=*/true);
  const Matrix<float>& got_dist = run.dist;
  const Matrix<std::int64_t>& got_pred = run.pred;

  ASSERT_EQ(got_dist.rows(), n);
  EXPECT_EQ(max_abs_diff<float>(exp_dist.view(), got_dist.view()), 0.0);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (got_pred(i, j) != exp_pred(i, j)) ++mismatches;
      if (got_pred(i, j) != witness(i, j)) ++mismatches;
    }
  EXPECT_EQ(mismatches, 0u)
      << "variant=" << variant_name(c.variant) << " tiled=" << c.tiled;

  // Independent sanity on top of bit-identity: the reconstructed paths are
  // valid optimal walks through the ORIGINAL edge set.
  const auto w = gen.full(static_cast<vertex_t>(n));
  for (vertex_t s2 = 0; s2 < static_cast<vertex_t>(n); ++s2)
    for (vertex_t t = 0; t < static_cast<vertex_t>(n); ++t) {
      if (s2 == t) continue;
      if (value_traits<float>::is_inf(got_dist(s2, t))) {
        EXPECT_EQ(got_pred(s2, t), -1);
        continue;
      }
      const auto path = reconstruct_path(got_pred.view(), s2, t);
      ASSERT_FALSE(path.empty()) << s2 << "->" << t;
      double len = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        ASSERT_FALSE(value_traits<float>::is_inf(w(path[i], path[i + 1])))
            << "non-edge on path " << s2 << "->" << t;
        len += w(path[i], path[i + 1]);
      }
      EXPECT_EQ(static_cast<float>(len), got_dist(s2, t)) << s2 << "->" << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsByPlacement, DistPathsParam,
    ::testing::Values(DistPathsCase{Variant::kBaseline, false},
                      DistPathsCase{Variant::kPipelined, false},
                      DistPathsCase{Variant::kAsync, false},
                      DistPathsCase{Variant::kOffload, false},
                      DistPathsCase{Variant::kBaseline, true},
                      DistPathsCase{Variant::kPipelined, true},
                      DistPathsCase{Variant::kAsync, true},
                      DistPathsCase{Variant::kOffload, true}),
    [](const ::testing::TestParamInfo<DistPathsCase>& info) {
      return std::string(variant_name(info.param.variant)) +
             (info.param.tiled ? "_tiled" : "_naive");
    });

TEST(DistPaths, RectangularGridsAlsoBitIdentical) {
  const std::size_t n = 48, b = 8;
  for (const auto [pr, pc] : {std::pair{1, 1}, std::pair{2, 3},
                              std::pair{3, 2}, std::pair{1, 4}}) {
    DenseEntryGen<float> gen(5200 + static_cast<std::uint64_t>(pr * 10 + pc),
                             0.7, 1.0f, 60.0f, /*integral=*/true);
    auto exp_dist = gen.full(static_cast<vertex_t>(n));
    Matrix<std::int64_t> exp_pred(n, n);
    blocked_floyd_warshall_paths<S>(exp_dist.view(), exp_pred.view(), b);

    const auto grid = GridSpec::row_major(pr, pc);
    DistFwOptions opt;
    opt.block_size = b;
    const auto run = run_parallel_fw<S>(n, gen, grid, 1, opt,
                                        /*track_paths=*/true);
    const Matrix<float>& got_dist = run.dist;
    const Matrix<std::int64_t>& got_pred = run.pred;
    EXPECT_EQ(max_abs_diff<float>(exp_dist.view(), got_dist.view()), 0.0)
        << pr << "x" << pc;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (got_pred(i, j) != exp_pred(i, j)) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << pr << "x" << pc;
  }
}

// --- traffic properties --------------------------------------------------------

TEST(ParallelFw, ReorderingReducesInternodeTraffic) {
  // 4x4 grid, 4 ranks/node (4 nodes). Row-major packing makes each node a
  // 1x4 slice (node grid K = 4x1): every process column spans all four
  // nodes, so each row-panel broadcast crosses three NICs. The paper's
  // placement (Figure 1: 2x2 node tiles, K = 2x2) halves the crossings in
  // each direction — the §3.4.1 K_r ≈ K_c optimum.
  const std::size_t n = 64, b = 8;
  DenseEntryGen<float> gen(80, 0.9, 1.0f, 100.0f, /*integral=*/true);
  DistFwOptions opt;
  opt.variant = Variant::kBaseline;
  opt.block_size = b;

  const auto naive =
      run_parallel_fw<S>(n, gen, GridSpec::row_major(4, 4), 4, opt);
  const auto tiled =
      run_parallel_fw<S>(n, gen, GridSpec::tiled(2, 2, 2, 2), 4, opt);
  EXPECT_EQ(max_abs_diff<float>(naive.dist.view(), tiled.dist.view()), 0.0);
  EXPECT_LT(tiled.traffic.bytes_internode, naive.traffic.bytes_internode);
  EXPECT_LE(tiled.traffic.max_nic_bytes, naive.traffic.max_nic_bytes);
}

TEST(ParallelFw, RingBcastIsNodeAware) {
  // With the node-aware ring, the async variant's panel broadcasts cross
  // each NIC exactly once per node chain — its internode volume must not
  // exceed the tree-based baseline's on the same tiled placement.
  const std::size_t n = 64, b = 8;
  DenseEntryGen<float> gen(82, 0.9, 1.0f, 100.0f, /*integral=*/true);
  const auto grid = GridSpec::tiled(2, 2, 2, 2);
  DistFwOptions base, async;
  base.variant = Variant::kBaseline;
  base.block_size = b;
  async.variant = Variant::kAsync;
  async.block_size = b;
  const auto t = run_parallel_fw<S>(n, gen, grid, 4, base);
  const auto r = run_parallel_fw<S>(n, gen, grid, 4, async);
  EXPECT_EQ(max_abs_diff<float>(t.dist.view(), r.dist.view()), 0.0);
  EXPECT_LE(r.traffic.bytes_internode, t.traffic.bytes_internode);
}

TEST(ParallelFw, AllVariantsMoveSameTotalPanelVolume) {
  // Tree and ring broadcasts are both volume-minimal, so baseline and
  // async runs must ship the same total byte count (schedule differs,
  // volume does not).
  const std::size_t n = 48, b = 8;
  DenseEntryGen<float> gen(81, 0.9, 1.0f, 100.0f, /*integral=*/true);
  const auto grid = GridSpec::row_major(2, 2);
  DistFwOptions base, async;
  base.variant = Variant::kBaseline;
  base.block_size = b;
  async.variant = Variant::kAsync;
  async.block_size = b;
  const auto r1 = run_parallel_fw<S>(n, gen, grid, 2, base);
  const auto r2 = run_parallel_fw<S>(n, gen, grid, 2, async);
  EXPECT_EQ(r1.traffic.bytes_total, r2.traffic.bytes_total);
}

}  // namespace
}  // namespace parfw::dist
