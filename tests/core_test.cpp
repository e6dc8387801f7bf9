// Core FW tests: sequential FW vs closed forms and SSSP oracles, blocked
// FW vs sequential across block sizes, diag-update strategies, path
// reconstruction, negative cycles, incremental updates, other semirings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "core/apsp.hpp"
#include "core/blocked_fw.hpp"
#include "core/diag_update.hpp"
#include "core/floyd_warshall.hpp"
#include "core/incremental.hpp"
#include "core/witness.hpp"
#include "dist/driver.hpp"
#include "graph/connected_components.hpp"
#include "graph/generators.hpp"
#include "sssp/sssp.hpp"

#include "oracles.hpp"

namespace parfw {
namespace {

using S = MinPlus<double>;

Matrix<double> fw_oracle(const Graph& g) {
  auto d = g.distance_matrix<S>();
  floyd_warshall<S>(d.view());
  return d;
}

TEST(FloydWarshall, RingClosedForm) {
  // Directed unit ring: dist(i, j) = (j - i) mod n.
  const vertex_t n = 12;
  const auto d = fw_oracle(gen::ring(n));
  for (vertex_t i = 0; i < n; ++i)
    for (vertex_t j = 0; j < n; ++j)
      EXPECT_EQ(d(i, j), static_cast<double>((j - i + n) % n));
}

TEST(FloydWarshall, MatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto g = gen::erdos_renyi(60, 0.15, seed, 1.0, 100.0, /*integral=*/true);
    const auto fw = fw_oracle(g);
    const auto dj = sssp::dijkstra_apsp(g);
    EXPECT_EQ(max_abs_diff<double>(fw.view(), dj.view()), 0.0) << "seed " << seed;
  }
}

TEST(FloydWarshall, UnreachableStaysInfinite) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto d = fw_oracle(g);
  EXPECT_TRUE(value_traits<double>::is_inf(d(0, 2)));
  EXPECT_TRUE(value_traits<double>::is_inf(d(3, 0)));
  EXPECT_EQ(d(0, 1), 1.0);
}

TEST(FloydWarshall, NegativeEdgesNoCycle) {
  Graph g(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, -3.0);
  g.add_edge(2, 3, 2.0);
  g.add_edge(0, 3, 10.0);
  const auto d = fw_oracle(g);
  EXPECT_EQ(d(0, 3), 4.0);  // 5 - 3 + 2 beats the direct 10
  EXPECT_FALSE(has_negative_cycle<S>(d.view()));
}

TEST(FloydWarshall, NegativeCycleDetected) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, -2.0);
  g.add_edge(2, 0, 0.5);
  const auto d = fw_oracle(g);
  EXPECT_TRUE(has_negative_cycle<S>(d.view()));
}

TEST(FloydWarshall, MultiComponentMatchesPerComponentSolve) {
  const auto g = gen::multi_component(3, 15, 0.4, 9);
  const auto d = fw_oracle(g);
  const auto labels = connected_components(g);
  for (vertex_t i = 0; i < g.num_vertices(); ++i)
    for (vertex_t j = 0; j < g.num_vertices(); ++j)
      if (labels[i] != labels[j]) {
        EXPECT_TRUE(value_traits<double>::is_inf(d(i, j)));
      }
}

// --- Blocked FW ----------------------------------------------------------

class BlockedFwParam
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};
// (n, block_size, diag_strategy)

TEST_P(BlockedFwParam, MatchesSequential) {
  const auto [n, b, diag] = GetParam();
  const auto g = gen::erdos_renyi(n, 0.2, 1234 + n + b, 1.0, 100.0, /*integral=*/true);
  const auto expected = fw_oracle(g);
  auto d = g.distance_matrix<S>();
  BlockedFwOptions opt;
  opt.block_size = static_cast<std::size_t>(b);
  opt.diag = static_cast<DiagStrategy>(diag);
  blocked_floyd_warshall<S>(d.view(), opt);
  EXPECT_EQ(max_abs_diff<double>(expected.view(), d.view()), 0.0)
      << "n=" << n << " b=" << b << " diag=" << diag;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedFwParam,
    ::testing::Combine(::testing::Values(1, 7, 32, 64, 97, 130),
                       ::testing::Values(1, 8, 16, 33, 64, 200),
                       ::testing::Values(0, 1)));  // kClassic, kLogSquaring

// The look-ahead schedule across pool sizes (0 and 1 run on the caller),
// shapes with one, two, three and many block rows — each with a fringe
// block, the last also wider than one tile — and both DiagUpdate
// strategies, bit for bit against Algorithm 1 on integral weights.
struct FwShape {
  int n, b;
};

class BlockedFwSchedule
    : public ::testing::TestWithParam<std::tuple<int, FwShape, int>> {};
// (pool workers, shape, diag_strategy)

Graph schedule_graph(int n) {
  return gen::erdos_renyi(n, 0.1, 700 + n, 1.0, 100.0, /*integral=*/true);
}

/// Algorithm 1 on schedule_graph(n), computed once per n.
const Matrix<double>& schedule_oracle(int n) {
  static std::map<int, Matrix<double>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, fw_oracle(schedule_graph(n))).first;
  return it->second;
}

std::string schedule_case_name(
    const ::testing::TestParamInfo<BlockedFwSchedule::ParamType>& info) {
  const auto [workers, shape, diag] = info.param;
  return "w" + std::to_string(workers) + "_n" + std::to_string(shape.n) +
         "_b" + std::to_string(shape.b) + (diag ? "_logsq" : "_classic");
}

TEST_P(BlockedFwSchedule, MatchesAlgorithm1) {
  const auto [workers, shape, diag] = GetParam();
  ThreadPool pool(static_cast<std::size_t>(workers));
  auto d = schedule_graph(shape.n).distance_matrix<S>();
  BlockedFwOptions opt;
  opt.block_size = static_cast<std::size_t>(shape.b);
  opt.diag = static_cast<DiagStrategy>(diag);
  opt.pool = &pool;
  blocked_floyd_warshall<S>(d.view(), opt);
  EXPECT_EQ(max_abs_diff<double>(schedule_oracle(shape.n).view(), d.view()),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Pools, BlockedFwSchedule,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 7),
                       ::testing::Values(FwShape{29, 32}, FwShape{50, 32},
                                         FwShape{70, 32}, FwShape{600, 32}),
                       ::testing::Values(0, 1)),  // kClassic, kLogSquaring
    schedule_case_name);

TEST(BlockedFw, ParallelPoolMatchesSequential) {
  ThreadPool pool(4);
  const auto g = gen::erdos_renyi(150, 0.15, 55, 1.0, 100.0, /*integral=*/true);
  const auto expected = fw_oracle(g);
  auto d = g.distance_matrix<S>();
  BlockedFwOptions opt;
  opt.block_size = 32;
  opt.pool = &pool;
  blocked_floyd_warshall<S>(d.view(), opt);
  EXPECT_EQ(max_abs_diff<double>(expected.view(), d.view()), 0.0);
}

TEST(BlockedFw, BlockWiderThanMatrixIsOneBlock) {
  // A block size past n (here one that would overflow ⌈n/b⌉) means b = n.
  const auto g = gen::erdos_renyi(60, 0.1, 3, 1.0, 100.0, /*integral=*/true);
  auto d = g.distance_matrix<S>();
  blocked_floyd_warshall<S>(d.view(), {{.block_size = SIZE_MAX}});
  EXPECT_EQ(max_abs_diff<double>(fw_oracle(g).view(), d.view()), 0.0);
}

// The witness pass after the look-ahead loop, across pool sizes and the
// shapes of BlockedFwSchedule plus n=130 with b ∈ {16, 33}. Distances must
// equal Algorithm 1 bit for bit, and the pred matrix must equal the scalar
// witness oracle whatever the pool size, and the pred matrix of a
// distributed paths run (async 2x2) of the same graph.
class BlockedFwPaths
    : public ::testing::TestWithParam<std::tuple<int, FwShape>> {};
// (pool workers, shape)

struct PathsOracle {
  Matrix<std::int64_t> witness;  ///< witness_oracle over Algorithm 1
  Matrix<std::int64_t> dist;     ///< dist::run_parallel_fw, async 2x2
};

/// Both pred oracles for schedule_graph(shape.n) at block size shape.b,
/// computed once per shape. The 2x2 layout needs n % b == 0 and at least
/// two blocks, so its graph is padded with isolated vertices: they are no
/// vertex's in-neighbour, so the top-left n x n preds are those of the
/// unpadded graph.
const PathsOracle& paths_oracle(FwShape shape) {
  static std::map<std::pair<int, int>, PathsOracle> cache;
  const auto key = std::pair{shape.n, shape.b};
  if (auto it = cache.find(key); it != cache.end()) return it->second;
  const auto n = static_cast<std::size_t>(shape.n);
  const auto b = static_cast<std::size_t>(shape.b);
  const Graph g = schedule_graph(shape.n);
  PathsOracle o;
  o.witness = witness_oracle<S>(g.distance_matrix<S>().view(),
                                schedule_oracle(shape.n).view());

  const std::size_t blocks = std::max<std::size_t>(2, (n + b - 1) / b);
  Graph padded(static_cast<vertex_t>(blocks * b));
  for (const Edge& e : g.edges()) padded.add_edge(e.src, e.dst, e.weight);
  dist::DistFwOptions dopt;
  dopt.variant = sched::Variant::kAsync;
  dopt.block_size = b;
  const auto r = dist::run_parallel_fw<S>(
      padded, dist::GridSpec::row_major(2, 2), 1, dopt, /*track_paths=*/true);
  o.dist = Matrix<std::int64_t>(n, n);
  o.dist.view().copy_from(r.pred->view().sub(0, 0, n, n));
  return cache.emplace(key, std::move(o)).first->second;
}

std::size_t pred_mismatches(MatrixView<const std::int64_t> a,
                            MatrixView<const std::int64_t> b) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) bad += a(i, j) != b(i, j);
  return bad;
}

std::string paths_case_name(
    const ::testing::TestParamInfo<BlockedFwPaths::ParamType>& info) {
  const auto [workers, shape] = info.param;
  return "w" + std::to_string(workers) + "_n" + std::to_string(shape.n) +
         "_b" + std::to_string(shape.b);
}

TEST_P(BlockedFwPaths, MatchesOraclesAcrossPools) {
  const auto [workers, shape] = GetParam();
  const auto n = static_cast<std::size_t>(shape.n);
  ThreadPool pool(static_cast<std::size_t>(workers));
  const auto w = schedule_graph(shape.n).distance_matrix<S>();
  auto d = w.clone();
  BlockedFwOptions opt;
  opt.block_size = static_cast<std::size_t>(shape.b);
  opt.pool = &pool;
  blocked_floyd_warshall<S>(d.view(), opt);
  EXPECT_EQ(max_abs_diff<double>(schedule_oracle(shape.n).view(), d.view()),
            0.0);
  const PathsOracle& o = paths_oracle(shape);
  for (WitnessMethod m : {WitnessMethod::kScan, WitnessMethod::kProduct}) {
    Matrix<std::int64_t> pred(n, n);
    witness_predecessors<S>(w.view(), d.view(), pred.view(), &pool, nullptr,
                            m);
    EXPECT_EQ(pred_mismatches(o.witness.view(), pred.view()), 0u);
    EXPECT_EQ(pred_mismatches(o.dist.view(), pred.view()), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pools, BlockedFwPaths,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 7),
                       ::testing::Values(FwShape{29, 32}, FwShape{50, 32},
                                         FwShape{70, 32}, FwShape{600, 32},
                                         FwShape{130, 16}, FwShape{130, 33})),
    paths_case_name);

// --- Witness ---------------------------------------------------------------

/// A graph whose zero-weight cycles make the witness pointers cycle: a
/// bidirectional zero-weight ring over every third vertex of a positive
/// ER graph, plus zero-weight 2-cycles.
Graph zero_cycle_graph(vertex_t n) {
  Graph g = gen::erdos_renyi(n, 0.08, 41, 1.0, 20.0, /*integral=*/true);
  for (vertex_t v = 0; v + 3 < n; v += 3) {
    g.add_edge(v, v + 3, 0.0);
    g.add_edge(v + 3, v, 0.0);
  }
  for (vertex_t v = 1; v + 1 < n; v += 7) {
    g.add_edge(v, v + 1, 0.0);
    g.add_edge(v + 1, v, 0.0);
  }
  return g;
}

/// Every engine's pred on `g` is bit-identical to the witness oracle over
/// its own closed matrix, and every walk is simple and sums to D exactly.
template <typename Sr>
void expect_engines_match_oracle(const Graph& g, std::size_t b) {
  const auto w = g.distance_matrix<Sr>();
  for (ApspAlgorithm alg : {ApspAlgorithm::kSequential, ApspAlgorithm::kBlocked,
                            ApspAlgorithm::kBlockedParallel}) {
    ApspOptions opt;
    opt.algorithm = alg;
    opt.block_size = b;
    opt.track_paths = true;
    const auto r = apsp<Sr>(g, opt);
    const auto want = witness_oracle<Sr>(w.view(), r.dist.view());
    EXPECT_EQ(pred_mismatches(want.view(), r.pred->view()), 0u)
        << "algorithm " << static_cast<int>(alg);
    EXPECT_EQ(walk_violation<Sr>(w.view(), r.dist.view(), r.pred->view()), "")
        << "algorithm " << static_cast<int>(alg);
  }
}

TEST(Witness, EnginesMatchOracleOnSparseIntegralEr) {
  expect_engines_match_oracle<S>(
      gen::erdos_renyi(150, 0.03, 5, 1.0, 100.0, /*integral=*/true), 32);
}

TEST(Witness, EnginesMatchOracleOnDenseUniform) {
  // Dense: kAuto takes the product body.
  const auto g = gen::dense_uniform(96, 6, 1.0, 100.0, /*integral=*/true);
  expect_engines_match_oracle<S>(g, 32);
  expect_engines_match_oracle<MinPlus<float>>(g, 32);
}

TEST(Witness, EnginesMatchOracleWithZeroWeightCycles) {
  expect_engines_match_oracle<S>(zero_cycle_graph(120), 16);
}

TEST(Witness, EnginesMatchOracleOnMaxMin) {
  expect_engines_match_oracle<MaxMin<double>>(
      gen::erdos_renyi(100, 0.05, 8, 1.0, 50.0, /*integral=*/true), 32);
  expect_engines_match_oracle<MaxMin<float>>(
      gen::dense_uniform(64, 9, 1.0, 50.0, /*integral=*/true), 16);
}

TEST(Witness, EnginesMatchOracleOnBoolOrAnd) {
  // One-byte values: the scan takes its scalar body, the product the
  // argmin kernel's 127-deep panels. Unit weights (integral [1, 2)).
  expect_engines_match_oracle<BoolOrAnd>(
      gen::erdos_renyi(150, 0.02, 3, 1.0, 2.0, /*integral=*/true), 32);
  expect_engines_match_oracle<BoolOrAnd>(
      gen::dense_uniform(300, 4, 1.0, 2.0, /*integral=*/true), 64);
}

// Scan and product agree bit for bit on both sides of the density
// threshold, under every pool size; kAuto picks by density; zero-weight
// cycles and max-min ties rebuild rows as trees.
TEST(Witness, ScanAndProductAgreeAcrossThreshold) {
  using Sf = MinPlus<float>;
  const vertex_t n = 160;
  for (double p : {0.01, 0.03, detail::kWitnessProductDensity * 0.8,
                   detail::kWitnessProductDensity * 1.5, 0.5}) {
    const auto g = gen::erdos_renyi(n, p, 77, 1.0, 100.0, /*integral=*/true);
    const auto w = g.distance_matrix<Sf>();
    auto d = w.clone();
    blocked_floyd_warshall<Sf>(d.view(), {{.block_size = 32}});
    const auto want = witness_oracle<Sf>(w.view(), d.view());
    for (int workers : {0, 1, 3, 7}) {
      ThreadPool pool(static_cast<std::size_t>(workers));
      for (WitnessMethod m : {WitnessMethod::kAuto, WitnessMethod::kScan,
                              WitnessMethod::kProduct}) {
        Matrix<std::int64_t> pred(n, n);
        const WitnessStats st = witness_predecessors<Sf>(
            w.view(), d.view(), pred.view(), &pool, nullptr, m);
        EXPECT_EQ(pred_mismatches(want.view(), pred.view()), 0u)
            << "p=" << p << " workers=" << workers;
        if (m == WitnessMethod::kAuto) {
          const bool dense = static_cast<double>(st.edges) >
                             detail::kWitnessProductDensity * n * n;
          EXPECT_EQ(st.method, dense ? WitnessMethod::kProduct
                                     : WitnessMethod::kScan);
        }
      }
    }
  }
}

TEST(Witness, CyclingRowsBecomeTrees) {
  const auto g = zero_cycle_graph(90);
  const auto w = g.distance_matrix<S>();
  auto d = w.clone();
  floyd_warshall<S>(d.view());
  Matrix<std::int64_t> pred(90, 90);
  const WitnessStats st =
      witness_predecessors<S>(w.view(), d.view(), pred.view());
  EXPECT_GT(st.bfs_rows, 0u);
  EXPECT_EQ(walk_violation<S>(w.view(), d.view(), pred.view()), "");
  // Row 3 of 3 → 2 (1) with a zero-weight 2-cycle 1 ⇄ 2: the scan's
  // smallest tied in-neighbour of 2 is 1 and of 1 is 2, a pointer cycle;
  // the tree rebuild routes 3 → 2 → 1. The other rows do not cycle.
  Graph small(4);
  small.add_edge(3, 2, 1.0);
  small.add_edge(1, 2, 0.0);
  small.add_edge(2, 1, 0.0);
  const auto sw = small.distance_matrix<S>();
  auto sd = sw.clone();
  floyd_warshall<S>(sd.view());
  Matrix<std::int64_t> sp(4, 4);
  EXPECT_EQ(witness_predecessors<S>(sw.view(), sd.view(), sp.view()).bfs_rows,
            1u);
  EXPECT_EQ(sp(3, 2), 3);
  EXPECT_EQ(sp(3, 1), 2);
  EXPECT_EQ(sp(1, 2), 1);
  EXPECT_EQ(sp(2, 1), 2);
}

TEST(Witness, RecordsSeriesIntoTheRunRegistry) {
  const auto g = zero_cycle_graph(60);
  const auto w = g.distance_matrix<S>();
  auto d = w.clone();
  floyd_warshall<S>(d.view());
  Matrix<std::int64_t> pred(60, 60);
  telemetry::Registry reg;
  const WitnessStats st = witness_predecessors<S>(
      w.view(), d.view(), pred.view(), nullptr, &reg, WitnessMethod::kScan);
  EXPECT_EQ(reg.histogram("paths.witness.seconds", "method=scan").count(), 1u);
  EXPECT_EQ(reg.counter("paths.witness.bfs_rows").value(), st.bfs_rows);
}

TEST(BlockedFw, FloatPrecisionMatchesSequentialBitwise) {
  using Sf = MinPlus<float>;
  const auto g = gen::erdos_renyi(80, 0.25, 77, 1.0, 100.0, /*integral=*/true);
  auto a = g.distance_matrix<Sf>();
  auto b = a.clone();
  floyd_warshall<Sf>(a.view());
  blocked_floyd_warshall<Sf>(b.view(), {{.block_size = 17}});
  // min/+ over identical inputs is exact: results must agree bitwise.
  EXPECT_EQ(max_abs_diff<float>(a.view(), b.view()), 0.0);
}

// --- DiagUpdate ------------------------------------------------------------

TEST(DiagUpdate, LogSquaringStepCount) {
  EXPECT_EQ(log_squaring_steps(1), 0u);
  EXPECT_EQ(log_squaring_steps(2), 1u);
  EXPECT_EQ(log_squaring_steps(3), 1u);
  EXPECT_EQ(log_squaring_steps(5), 2u);
  EXPECT_EQ(log_squaring_steps(9), 3u);
  EXPECT_EQ(log_squaring_steps(64), 6u);
  EXPECT_EQ(log_squaring_steps(65), 6u);
  EXPECT_EQ(log_squaring_steps(66), 7u);
}

TEST(DiagUpdate, LogSquaringEqualsClassic) {
  for (int n : {1, 2, 3, 16, 45, 64}) {
    const auto g = gen::erdos_renyi(n, 0.3, 300 + n, 1.0, 100.0, /*integral=*/true);
    auto a = g.distance_matrix<S>();
    auto b = a.clone();
    diag_update<S>(a.view(), DiagStrategy::kClassic);
    diag_update<S>(b.view(), DiagStrategy::kLogSquaring);
    EXPECT_EQ(max_abs_diff<double>(a.view(), b.view()), 0.0) << "n=" << n;
  }
}

TEST(DiagUpdate, FlopModel) {
  EXPECT_DOUBLE_EQ(diag_update_flops(64, DiagStrategy::kClassic),
                   2.0 * 64 * 64 * 64);
  EXPECT_DOUBLE_EQ(diag_update_flops(64, DiagStrategy::kLogSquaring),
                   2.0 * 64 * 64 * 64 * 6);
}

// --- Paths -----------------------------------------------------------------

TEST(Paths, ReconstructedPathsAreValidAndOptimal) {
  const auto g = gen::erdos_renyi(40, 0.2, 91);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kSequential;
  opt.track_paths = true;
  const auto r = apsp<S>(g, opt);
  const auto w = g.distance_matrix<S>();  // edge weights
  for (vertex_t s = 0; s < 40; ++s) {
    for (vertex_t t = 0; t < 40; ++t) {
      if (value_traits<double>::is_inf(r.dist(s, t))) {
        if (s != t) {
          EXPECT_EQ(r.query(s, t).status, PathStatus::kUnreachable);
        }
        continue;
      }
      const auto p = r.query(s, t).path;
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), s);
      EXPECT_EQ(p.back(), t);
      double len = 0;
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        ASSERT_FALSE(value_traits<double>::is_inf(w(p[i], p[i + 1])))
            << "path uses a non-edge";
        len += w(p[i], p[i + 1]);
      }
      EXPECT_NEAR(len, r.dist(s, t), 1e-9) << s << "->" << t;
    }
  }
}

TEST(Paths, BlockedPathsMatchSequentialDistances) {
  const auto g = gen::erdos_renyi(50, 0.25, 92, 1.0, 100.0, /*integral=*/true);
  ApspOptions seq;
  seq.algorithm = ApspAlgorithm::kSequential;
  seq.track_paths = true;
  const auto a = apsp<S>(g, seq);
  const auto w = g.distance_matrix<S>();
  for (ApspAlgorithm alg :
       {ApspAlgorithm::kBlocked, ApspAlgorithm::kBlockedParallel}) {
    ApspOptions blk;
    blk.algorithm = alg;
    blk.track_paths = true;
    blk.block_size = 13;
    const auto b = apsp<S>(g, blk);
    EXPECT_EQ(max_abs_diff<double>(a.dist.view(), b.dist.view()), 0.0);
    // The blocked predecessor matrix must induce optimal valid paths.
    for (vertex_t s = 0; s < 50; ++s)
      for (vertex_t t = 0; t < 50; ++t) {
        if (value_traits<double>::is_inf(b.dist(s, t)) || s == t) continue;
        const auto p = b.query(s, t).path;
        ASSERT_FALSE(p.empty());
        double len = 0;
        for (std::size_t i = 0; i + 1 < p.size(); ++i) len += w(p[i], p[i + 1]);
        EXPECT_NEAR(len, b.dist(s, t), 1e-9);
      }
  }
}

TEST(Paths, SelfPathIsSingleton) {
  const auto g = gen::ring(5);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kSequential;
  opt.track_paths = true;
  const auto r = apsp<S>(g, opt);
  EXPECT_EQ(r.query(2, 2).path, (std::vector<std::int64_t>{2}));
}

// --- High-level API ----------------------------------------------------------

TEST(Apsp, AlgorithmsAgree) {
  const auto g = gen::erdos_renyi(96, 0.2, 10, 1.0, 100.0, /*integral=*/true);
  ApspOptions sopt;
  sopt.algorithm = ApspAlgorithm::kSequential;
  const auto a = apsp<S>(g, sopt);
  ApspOptions blk;
  blk.algorithm = ApspAlgorithm::kBlocked;
  blk.block_size = 24;
  const auto b = apsp<S>(g, blk);
  ApspOptions popt;
  popt.algorithm = ApspAlgorithm::kBlockedParallel;
  const auto c = apsp<S>(g, popt);
  EXPECT_EQ(max_abs_diff<double>(a.dist.view(), b.dist.view()), 0.0);
  EXPECT_EQ(max_abs_diff<double>(a.dist.view(), c.dist.view()), 0.0);
}

TEST(Apsp, RejectNegativeCycleOption) {
  Graph g(2);
  g.add_edge(0, 1, -3.0);
  g.add_edge(1, 0, 1.0);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kSequential;
  opt.reject_negative_cycles = true;
  EXPECT_THROW(apsp<S>(g, opt), check_error);
}

TEST(Apsp, MaxMinWidestPath) {
  // Widest path on a ring with one weak link: the bottleneck between any
  // ordered pair is the minimum edge capacity along the only path.
  using W = MaxMin<double>;
  Graph g(4);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 8.0);
  g.add_edge(3, 0, 6.0);
  auto d = g.distance_matrix<W>();
  floyd_warshall<W>(d.view());
  EXPECT_EQ(d(0, 2), 3.0);
  EXPECT_EQ(d(0, 3), 3.0);
  EXPECT_EQ(d(2, 1), 6.0);
  auto blocked = g.distance_matrix<W>();
  blocked_floyd_warshall<W>(blocked.view(), {{.block_size = 2}});
  EXPECT_EQ(max_abs_diff<double>(d.view(), blocked.view()), 0.0);
}

TEST(Apsp, TransitiveClosure) {
  using B = BoolOrAnd;
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 1.0);
  Matrix<std::uint8_t> m(5, 5, B::zero());
  for (vertex_t v = 0; v < 5; ++v) m(v, v) = B::one();
  for (const Edge& e : g.edges()) m(e.src, e.dst) = B::one();
  blocked_floyd_warshall<B>(m.view(), {{.block_size = 2}});
  EXPECT_EQ(m(0, 2), 1);
  EXPECT_EQ(m(0, 4), 0);
  EXPECT_EQ(m(3, 4), 1);
  EXPECT_EQ(m(2, 0), 0);
}

// --- Incremental -------------------------------------------------------------

TEST(Incremental, EdgeDecreaseMatchesRecompute) {
  auto g = gen::erdos_renyi(50, 0.15, 200);
  auto closed = fw_oracle(g);
  // Improve an existing pair sharply and fold it in.
  const EdgeUpdate u{3, 17, 0.01};
  const auto outcome = incremental_update<S>(closed.view(), u);
  EXPECT_EQ(outcome, IncrementalOutcome::kApplied);
  g.add_edge(3, 17, 0.01);
  const auto expected = fw_oracle(g);
  EXPECT_LT(max_abs_diff<double>(expected.view(), closed.view()), 1e-12);
}

TEST(Incremental, NoEffectWhenNotImproving) {
  const auto g = gen::dense_uniform(20, 5, 1.0, 10.0);
  auto closed = fw_oracle(g);
  const auto before = closed.clone();
  // Weight far above the current distance: flagged as a (potential) increase.
  EXPECT_EQ(incremental_update<S>(closed.view(), {0, 1, 1e6}),
            IncrementalOutcome::kNeedsRecompute);
  // Weight exactly equal to the closure value: a genuine no-op.
  EXPECT_EQ(incremental_update<S>(closed.view(), {0, 1, closed(0, 1)}),
            IncrementalOutcome::kNoEffect);
  EXPECT_EQ(max_abs_diff<double>(before.view(), closed.view()), 0.0);
}

TEST(Incremental, BatchAppliesDecreases) {
  auto g = gen::erdos_renyi(40, 0.2, 300);
  auto closed = fw_oracle(g);
  const EdgeUpdate batch[] = {{1, 2, 0.5}, {5, 9, 0.25}, {30, 4, 0.125}};
  bool recompute = false;
  const std::size_t applied =
      incremental_update_batch<S>(closed.view(), batch, &recompute);
  EXPECT_EQ(applied, 3u);
  EXPECT_FALSE(recompute);
  for (const auto& u : batch) {
    g.add_edge(u.src, u.dst, u.new_weight);
  }
  const auto expected = fw_oracle(g);
  EXPECT_LT(max_abs_diff<double>(expected.view(), closed.view()), 1e-12);
}

}  // namespace
}  // namespace parfw
