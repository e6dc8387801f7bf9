// Cross-module integration tests: integer semirings through the full
// solver stack, alternative semirings through the distributed runtime,
// DES traffic against the closed-form volume model, and an end-to-end
// "huge graph" pipeline at miniature scale.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/apsp.hpp"
#include "core/floyd_warshall.hpp"
#include "dist/driver.hpp"
#include "dist/solve.hpp"
#include "graph/generators.hpp"
#include "perf/experiments.hpp"
#include "sssp/sssp.hpp"

#include "oracles.hpp"

namespace parfw {
namespace {

// --- integer-weight solves through every engine -----------------------------

TEST(IntegerWeights, Int32MatchesDoubleOracle) {
  using Si = MinPlus<std::int32_t>;
  using Sd = MinPlus<double>;
  const auto g = gen::erdos_renyi(60, 0.15, 901, 1.0, 1000.0, /*integral=*/true);

  auto di = g.distance_matrix<Si>();
  blocked_floyd_warshall<Si>(di.view(), {{.block_size = 16}});
  auto dd = g.distance_matrix<Sd>();
  floyd_warshall<Sd>(dd.view());

  for (std::size_t i = 0; i < 60; ++i)
    for (std::size_t j = 0; j < 60; ++j) {
      if (value_traits<double>::is_inf(dd(i, j))) {
        EXPECT_TRUE(value_traits<std::int32_t>::is_inf(di(i, j)));
      } else {
        EXPECT_EQ(static_cast<double>(di(i, j)), dd(i, j));
      }
    }
}

TEST(IntegerWeights, Int64LargeWeightsNoOverflow) {
  using S64 = MinPlus<std::int64_t>;
  // Weights near 2^40: sums of up to n of them stay well below the
  // saturation sentinel; unreachable pairs must stay exactly "infinite".
  Graph g(20);
  Rng rng(17);
  for (vertex_t i = 0; i + 1 < 20; ++i)
    g.add_edge(i, i + 1,
               static_cast<double>((std::int64_t{1} << 40) +
                                   static_cast<std::int64_t>(rng.next_below(1000))));
  auto d = g.distance_matrix<S64>();
  blocked_floyd_warshall<S64>(d.view(), {{.block_size = 4}});
  EXPECT_GT(d(0, 19), std::int64_t{19} << 40);
  EXPECT_FALSE(value_traits<std::int64_t>::is_inf(d(0, 19)));
  EXPECT_TRUE(value_traits<std::int64_t>::is_inf(d(19, 0)));
}

TEST(IntegerWeights, Int32SaturationOnLongPaths) {
  using S32 = MinPlus<std::int32_t>;
  // A chain whose total weight exceeds int32 "infinity"/2: the saturating
  // ⊗ must clamp instead of wrapping negative.
  Graph g(10);
  for (vertex_t i = 0; i + 1 < 10; ++i) g.add_edge(i, i + 1, 2.0e8);
  auto d = g.distance_matrix<S32>();
  floyd_warshall<S32>(d.view());
  // 9 hops x 2e8 = 1.8e9 > inf sentinel (~1.07e9): clamps to "infinite".
  EXPECT_TRUE(value_traits<std::int32_t>::is_inf(d(0, 9)));
  EXPECT_EQ(d(0, 2), 400000000);
}

// --- alternative semirings through the distributed runtime --------------------

TEST(DistSemirings, MaxMinWidestPathDistributed) {
  using W = MaxMin<float>;
  const std::size_t n = 32, b = 8;
  DenseEntryGen<float> gen(777, 0.6, 1.0f, 100.0f, /*integral=*/true);

  auto expected = Matrix<float>(n, n, W::zero());
  for (std::size_t i = 0; i < n; ++i) expected(i, i) = W::one();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const float w = gen(static_cast<vertex_t>(i), static_cast<vertex_t>(j));
      if (!value_traits<float>::is_inf(w)) expected(i, j) = w;
    }
  auto init = expected.clone();
  floyd_warshall<W>(expected.view());

  const auto grid = dist::GridSpec::row_major(2, 2);
  Matrix<float> gathered;
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    dist::BlockCyclicMatrix<float> local(n, b, grid,
                                         grid.coord_of(world.rank()));
    local.load(init.view());
    dist::DistFwOptions opt;
    opt.variant = dist::Variant::kAsync;
    opt.block_size = b;
    dist::parallel_fw<W>(world, local, opt);
    auto out = local.gather(world);
    if (world.rank() == 0) gathered = std::move(out);
  });
  EXPECT_EQ(max_abs_diff<float>(expected.view(), gathered.view()), 0.0);
}

TEST(DistSemirings, TransitiveClosureDistributed) {
  using B = BoolOrAnd;
  const std::size_t n = 32, b = 8;
  const auto g = gen::erdos_renyi(static_cast<vertex_t>(n), 0.06, 611);

  Matrix<std::uint8_t> init(n, n, B::zero());
  for (std::size_t v = 0; v < n; ++v) init(v, v) = B::one();
  for (const Edge& e : g.edges()) init(e.src, e.dst) = B::one();
  auto expected = init.clone();
  floyd_warshall<B>(expected.view());

  const auto grid = dist::GridSpec::row_major(2, 2);
  Matrix<std::uint8_t> gathered;
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    dist::BlockCyclicMatrix<std::uint8_t> local(n, b, grid,
                                                grid.coord_of(world.rank()));
    local.load(init.view());
    dist::DistFwOptions opt;
    opt.variant = dist::Variant::kPipelined;
    opt.block_size = b;
    dist::parallel_fw<B>(world, local, opt);
    auto out = local.gather(world);
    if (world.rank() == 0) gathered = std::move(out);
  });
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(gathered(i, j), expected(i, j)) << i << "," << j;
}

// --- DES traffic vs the closed-form volume model -------------------------------

TEST(DesVolume, InternodeBytesTrackTheModel) {
  // The node-aware collectives deliver each panel to each node once, so
  // the DES's total internode volume must sit close to
  // nodes x model_node_volume (diag broadcasts add a little).
  using namespace perf;
  const MachineConfig m = MachineConfig::summit();
  for (int nodes : {4, 16}) {
    const double n = 49152, b = 768;
    const GridSetup setup = make_grid(m, nodes, /*reordered=*/true);
    GridShape shape{setup.grid.rows(), setup.grid.cols(), setup.grid.qr(),
                    setup.grid.qc()};
    const double model = model_node_volume(m, n, shape) * nodes;

    // Ring panel broadcasts (kAsync) are volume-minimal: each node
    // receives each panel exactly once, so the DES total must sit right
    // on the model (diag broadcasts add a few percent).
    FwProblem prob;
    prob.variant = dist::Variant::kAsync;
    prob.n = n;
    prob.b = b;
    const BuiltProgram built_ring =
        build_fw_program(m, prob, setup.grid, setup.node_of);
    const SimStats ring = simulate(built_ring.programs, built_ring.node_of, m);
    EXPECT_GT(ring.internode_bytes, 0.95 * model) << nodes << " nodes";
    EXPECT_LT(ring.internode_bytes, 1.15 * model) << nodes << " nodes";

    // Binomial trees (kBaseline) duplicate some internode hops; they may
    // exceed the bound but only by a small constant factor.
    prob.variant = dist::Variant::kBaseline;
    const BuiltProgram built_tree =
        build_fw_program(m, prob, setup.grid, setup.node_of);
    const SimStats tree = simulate(built_tree.programs, built_tree.node_of, m);
    EXPECT_GE(tree.internode_bytes, ring.internode_bytes) << nodes << " nodes";
    EXPECT_LT(tree.internode_bytes, 2.0 * model) << nodes << " nodes";
  }
}

TEST(DesVolume, ReorderedPlacementMovesFewerBytes) {
  using namespace perf;
  const MachineConfig m = MachineConfig::summit();
  const double n = 49152, b = 768;
  const int nodes = 16;
  double vols[2];
  int i = 0;
  for (bool reordered : {false, true}) {
    const GridSetup setup = make_grid(m, nodes, reordered);
    FwProblem prob;
    prob.variant = dist::Variant::kPipelined;
    prob.n = n;
    prob.b = b;
    const BuiltProgram built =
        build_fw_program(m, prob, setup.grid, setup.node_of);
    vols[i++] = simulate(built.programs, built.node_of, m).internode_bytes;
  }
  EXPECT_LT(vols[1], vols[0]);
}

// --- end-to-end miniature pipeline ---------------------------------------------

TEST(Pipeline, DistributedPathsAgreeWithDijkstra) {
  // Generate -> distribute -> solve -> gather -> witness -> reconstruct
  // routes -> validate against Dijkstra, the full production flow.
  using S = MinPlus<float>;
  const std::size_t n = 36, b = 6;
  DenseEntryGen<float> gen(2024, 0.35, 1.0f, 50.0f, /*integral=*/true);
  const auto grid = dist::GridSpec::tiled(1, 3, 2, 1);  // 2x3 ranks

  dist::DistFwOptions opt;
  opt.block_size = b;
  const auto run = dist::run_parallel_fw<S>(n, gen, grid, grid.qr() * grid.qc(),
                                            opt, /*track_paths=*/true);
  const Matrix<float>& dist_m = run.dist;
  const Matrix<std::int64_t>& pred_m = run.pred;

  // Dijkstra oracle built from the same generator.
  Graph g(static_cast<vertex_t>(n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const float w = gen(static_cast<vertex_t>(i), static_cast<vertex_t>(j));
      if (!value_traits<float>::is_inf(w))
        g.add_edge(static_cast<vertex_t>(i), static_cast<vertex_t>(j),
                   static_cast<double>(w));
    }
  for (vertex_t src : {0, 17, 35}) {
    const auto oracle = sssp::dijkstra(g, src);
    for (std::size_t t = 0; t < n; ++t) {
      if (oracle.dist[t] == sssp::kInf) {
        EXPECT_TRUE(value_traits<float>::is_inf(dist_m(src, t)));
        continue;
      }
      EXPECT_EQ(static_cast<double>(dist_m(src, t)), oracle.dist[t]);
      if (static_cast<std::size_t>(src) == t) continue;
      const auto path = reconstruct_path(pred_m.view(), src,
                                         static_cast<std::int64_t>(t));
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), static_cast<std::int64_t>(t));
    }
  }
}

TEST(Pipeline, AutoVariantPathsBitIdenticalToBlockedOracle) {
  // `--variant auto` with paths: the tuner resolves the (values) schedule,
  // then the resolved run's pred matrix must be bit-identical to the
  // single-node blocked solve AT THE WINNING BLOCK SIZE (resolve_auto is
  // deterministic, so querying it up front sees the same winner solve()
  // will use) and to the scalar witness oracle.
  using S = MinPlus<float>;
  const vertex_t n = 36;
  const auto g = gen::erdos_renyi(n, 0.3, 4242, 1.0, 50.0, /*integral=*/true);

  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kDistributed;
  opt.track_paths = true;
  opt.dist.variant = sched::Variant::kAuto;
  opt.dist.grid_rows = 2;
  opt.dist.grid_cols = 2;
  opt.dist.ranks_per_node = 2;

  const tune::ManifestEntry entry =
      resolve_auto(opt.dist, static_cast<std::size_t>(n), sizeof(float));

  const auto result = solve<S>(g, opt);
  ASSERT_TRUE(result.pred.has_value());

  ApspOptions sopt;
  sopt.algorithm = ApspAlgorithm::kBlocked;
  sopt.track_paths = true;
  sopt.block_size = entry.winner.block;
  const auto oracle = apsp<S>(g, sopt);
  ASSERT_TRUE(oracle.pred.has_value());

  EXPECT_EQ(max_abs_diff<float>(oracle.dist.view(), result.dist.view()), 0.0);
  const auto witness = witness_oracle<S>(g.distance_matrix<S>().view(),
                                         oracle.dist.view());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
    for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
      if ((*result.pred)(i, j) != (*oracle.pred)(i, j)) ++mismatches;
      if ((*result.pred)(i, j) != witness(i, j)) ++mismatches;
    }
  EXPECT_EQ(mismatches, 0u) << "winner block=" << entry.winner.block;
}

}  // namespace
}  // namespace parfw
