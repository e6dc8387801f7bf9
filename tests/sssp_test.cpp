// SSSP baseline tests: Dijkstra / Bellman-Ford agreement,
// Johnson's APSP vs Floyd-Warshall, negative-cycle handling.
#include <gtest/gtest.h>

#include "core/floyd_warshall.hpp"
#include "graph/generators.hpp"
#include "sssp/sssp.hpp"

#include "oracles.hpp"

namespace parfw {
namespace {

double diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == sssp::kInf && b[i] == sssp::kInf) continue;
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(Dijkstra, LineGraph) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  const auto r = sssp::dijkstra(g, 0);
  EXPECT_EQ(r.dist, (std::vector<double>{0, 1, 3, 6}));
  EXPECT_EQ(r.parent[3], 2);
  EXPECT_EQ(r.parent[0], -1);
}

TEST(Dijkstra, PrefersShorterIndirectPath) {
  Graph g(3);
  g.add_edge(0, 2, 10.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  const auto r = sssp::dijkstra(g, 0);
  EXPECT_EQ(r.dist[2], 3.0);
  EXPECT_EQ(r.parent[2], 1);
}

TEST(Dijkstra, NegativeWeightThrows) {
  Graph g(2);
  g.add_edge(0, 1, -1.0);
  EXPECT_THROW(sssp::dijkstra(g, 0), check_error);
}

TEST(BellmanFord, MatchesDijkstraNonNegative) {
  for (std::uint64_t seed : {10u, 20u, 30u}) {
    const auto g = gen::erdos_renyi(80, 0.1, seed);
    const auto d = sssp::dijkstra(g, 0);
    const auto b = sssp::bellman_ford(g, 0);
    EXPECT_EQ(diff(d.dist, b.dist), 0.0) << "seed " << seed;
  }
}

TEST(BellmanFord, HandlesNegativeEdges) {
  Graph g(4);
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(1, 3, -2.0);
  g.add_edge(2, 3, -4.0);
  bool neg = true;
  const auto r = sssp::bellman_ford(g, 0, &neg);
  EXPECT_FALSE(neg);
  EXPECT_EQ(r.dist[3], 1.0);
}

TEST(BellmanFord, DetectsNegativeCycle) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, -5.0);
  g.add_edge(2, 1, 1.0);
  bool neg = false;
  sssp::bellman_ford(g, 0, &neg);
  EXPECT_TRUE(neg);
}

TEST(BellmanFord, UnreachableNegativeCycleIgnored) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, -5.0);
  g.add_edge(3, 2, 1.0);  // negative cycle, unreachable from 0
  bool neg = false;
  const auto r = sssp::bellman_ford(g, 0, &neg);
  EXPECT_FALSE(neg);
  EXPECT_EQ(r.dist[1], 1.0);
}

TEST(Johnson, MatchesFloydWarshallWithNegativeEdges) {
  // Sparse digraph with some negative edges but no negative cycles:
  // weights in [-2, 50] on a DAG-ish layered structure plus a few back
  // edges with positive weight.
  Graph g(30);
  Rng rng(66);
  for (vertex_t i = 0; i < 29; ++i) {
    for (int e = 0; e < 3; ++e) {
      const vertex_t j = i + 1 + static_cast<vertex_t>(rng.next_below(
                                     static_cast<std::uint64_t>(29 - i)));
      g.add_edge(i, j, rng.next_double() * 52.0 - 2.0);  // may be negative
    }
  }
  for (int e = 0; e < 10; ++e) {
    const vertex_t i = static_cast<vertex_t>(rng.next_below(30));
    const vertex_t j = static_cast<vertex_t>(rng.next_below(30));
    if (i != j) g.add_edge(i, j, 10.0 + rng.next_double() * 40.0);
  }
  auto fw = g.distance_matrix<MinPlus<double>>();
  floyd_warshall<MinPlus<double>>(fw.view());
  ASSERT_FALSE(has_negative_cycle<MinPlus<double>>(fw.view()));
  const auto jn = sssp::johnson_apsp(g);
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = 0; j < 30; ++j) {
      if (value_traits<double>::is_inf(fw(i, j))) {
        EXPECT_EQ(jn(i, j), sssp::kInf);
      } else {
        EXPECT_NEAR(jn(i, j), fw(i, j), 1e-6);
      }
    }
}

TEST(Johnson, ThrowsOnNegativeCycle) {
  Graph g(2);
  g.add_edge(0, 1, -1.0);
  g.add_edge(1, 0, -1.0);
  EXPECT_THROW(sssp::johnson_apsp(g), check_error);
}

TEST(DijkstraApsp, MatchesFloydWarshall) {
  const auto g = gen::grid2d(6, 6, 51);
  const auto dj = sssp::dijkstra_apsp(g);
  auto fw = g.distance_matrix<MinPlus<double>>();
  floyd_warshall<MinPlus<double>>(fw.view());
  for (std::size_t i = 0; i < 36; ++i)
    for (std::size_t j = 0; j < 36; ++j)
      EXPECT_NEAR(dj(i, j), fw(i, j), 1e-9);
}

}  // namespace
}  // namespace parfw
