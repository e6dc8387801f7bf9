// Property-based tests: invariants every correct APSP closure must
// satisfy, checked across randomised graphs, solvers and semirings.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/apsp.hpp"
#include "core/blocked_fw.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace parfw {
namespace {

using S = MinPlus<double>;

class ClosureProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosureProperties, TriangleInequalityHolds) {
  const auto g = gen::erdos_renyi(45, 0.15, GetParam());
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kBlocked;
  opt.block_size = 16;
  const auto r = apsp<S>(g, opt);
  const auto& d = r.dist;
  for (std::size_t i = 0; i < 45; ++i)
    for (std::size_t k = 0; k < 45; ++k)
      for (std::size_t j = 0; j < 45; ++j)
        EXPECT_LE(d(i, j), d(i, k) + d(k, j) + 1e-9);
}

TEST_P(ClosureProperties, ClosureIsAFixpoint) {
  // Running FW again on a closed matrix must change nothing.
  const auto g = gen::erdos_renyi(40, 0.2, GetParam(), 1.0, 100.0, true);
  auto d = g.distance_matrix<S>();
  floyd_warshall<S>(d.view());
  auto again = d.clone();
  floyd_warshall<S>(again.view());
  EXPECT_EQ(max_abs_diff<double>(d.view(), again.view()), 0.0);
  blocked_floyd_warshall<S>(again.view(), {{.block_size = 8}});
  EXPECT_EQ(max_abs_diff<double>(d.view(), again.view()), 0.0);
}

TEST_P(ClosureProperties, ClosureDominatedByEdgesAndOneStepExpansion) {
  // d(i,j) <= w(i,j), and d(i,j) == min over u of w(i,u) + d(u,j) for
  // reachable pairs (Bellman optimality).
  const auto g = gen::erdos_renyi(35, 0.2, GetParam() + 5000, 1.0, 100.0, true);
  const auto w = g.distance_matrix<S>();
  auto d = w.clone();
  floyd_warshall<S>(d.view());
  const std::size_t n = 35;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_LE(d(i, j), w(i, j));
      if (i == j || value_traits<double>::is_inf(d(i, j))) continue;
      double best = value_traits<double>::infinity();
      for (std::size_t u = 0; u < n; ++u)
        best = std::min(best, w(i, u) + d(u, j));
      EXPECT_EQ(d(i, j), best) << i << "->" << j;
    }
}

TEST_P(ClosureProperties, MonotoneInEdgeWeights) {
  // Lowering any single edge weight can only lower (or keep) distances.
  auto g = gen::erdos_renyi(30, 0.25, GetParam() + 9000, 2.0, 100.0, true);
  auto before = g.distance_matrix<S>();
  floyd_warshall<S>(before.view());
  Rng rng(GetParam());
  const auto& e = g.edges()[rng.next_below(g.num_edges())];
  g.add_edge(e.src, e.dst, 1.0);  // strictly better duplicate
  auto after = g.distance_matrix<S>();
  floyd_warshall<S>(after.view());
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = 0; j < 30; ++j)
      EXPECT_LE(after(i, j), before(i, j));
}

TEST_P(ClosureProperties, SolverFamilyAgreesBitwise) {
  // Sequential FW and blocked FW must agree exactly on integral weights.
  const auto g = gen::erdos_renyi(52, 0.2, GetParam() + 12000, 1.0, 90.0, true);
  auto seq = g.distance_matrix<S>();
  floyd_warshall<S>(seq.view());

  auto blocked = g.distance_matrix<S>();
  blocked_floyd_warshall<S>(blocked.view(), {{.block_size = 13}});
  EXPECT_EQ(max_abs_diff<double>(seq.view(), blocked.view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace parfw
