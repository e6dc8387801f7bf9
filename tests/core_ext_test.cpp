// Tests for the extension features: component-wise APSP and resuming from
// a snapshot (the blob codec is tested in resilience_test.cpp).
#include <gtest/gtest.h>

#include "core/blocked_fw.hpp"
#include "core/component_apsp.hpp"
#include "core/floyd_warshall.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace parfw {
namespace {

using S = MinPlus<double>;

// --- component_apsp -----------------------------------------------------------

TEST(ComponentApsp, MatchesDenseSolveOnMultiComponentGraph) {
  // Integral weights keep min-plus sums order-independent (exact).
  const auto g = gen::multi_component(4, 20, 0.3, 11);
  auto dense = g.distance_matrix<S>();
  floyd_warshall<S>(dense.view());
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kBlocked;
  opt.block_size = 8;
  const auto split = component_apsp<S>(g, opt);
  // Blocked vs sequential sum orders differ; double rounding only.
  EXPECT_LT(max_abs_diff<double>(dense.view(), split.dist.view()), 1e-9);
}

TEST(ComponentApsp, SingleComponentDegeneratesToPlainApsp) {
  const auto g = gen::erdos_renyi(50, 0.2, 12);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kSequential;
  const auto a = apsp<S>(g, opt);
  const auto b = component_apsp<S>(g, opt);
  // Same algorithm, same order (single component is an identity remap).
  EXPECT_EQ(max_abs_diff<double>(a.dist.view(), b.dist.view()), 0.0);
}

TEST(ComponentApsp, PathsRemapToOriginalIds) {
  const auto g = gen::multi_component(3, 12, 0.5, 13);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kSequential;
  opt.track_paths = true;
  const auto r = component_apsp<S>(g, opt);
  const auto w = g.distance_matrix<S>();
  for (vertex_t s = 0; s < g.num_vertices(); ++s)
    for (vertex_t t = 0; t < g.num_vertices(); ++t) {
      if (s == t || value_traits<double>::is_inf(r.dist(s, t))) continue;
      const auto p = r.query(s, t).path;
      ASSERT_FALSE(p.empty());
      double len = 0;
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        ASSERT_FALSE(value_traits<double>::is_inf(w(p[i], p[i + 1])));
        len += w(p[i], p[i + 1]);
      }
      EXPECT_NEAR(len, r.dist(s, t), 1e-9);
    }
}

TEST(ComponentApsp, IsolatedVerticesStayUnreachable) {
  Graph g(5);
  g.add_edge(0, 1, 2.0);
  const auto r = component_apsp<S>(g);
  EXPECT_EQ(r.dist(0, 1), 2.0);
  EXPECT_TRUE(value_traits<double>::is_inf(r.dist(0, 2)));
  EXPECT_EQ(r.dist(3, 3), 0.0);
}

// --- checkpoint/restart -----------------------------------------------------

TEST(Checkpoint, ResumeReproducesUninterruptedRun) {
  using Sf = MinPlus<float>;
  DenseEntryGen<float> gen(32, 0.9, 1.0f, 50.0f, /*integral=*/true);
  const std::size_t n = 64, b = 8;

  // Uninterrupted run.
  auto full = gen.full(static_cast<vertex_t>(n));
  blocked_floyd_warshall<Sf>(full.view(), {{.block_size = b}});

  // Interrupted run: snapshot the state after iteration 3, "crash" later.
  auto crashing = gen.full(static_cast<vertex_t>(n));
  Matrix<float> snapshot(n, n);
  blocked_floyd_warshall_range<Sf>(
      crashing.view(), 0, {{.block_size = b}},
      [&](std::size_t k_done, MatrixView<float> view) {
        if (k_done == 3)
          snapshot.view().copy_from(MatrixView<const float>(view));
      });
  // (the run above actually completed; simulate the crash by resuming
  // from the snapshot taken at k=3)
  blocked_floyd_warshall_range<Sf>(snapshot.view(), 3, {{.block_size = b}});
  EXPECT_EQ(max_abs_diff<float>(full.view(), snapshot.view()), 0.0);
}

TEST(Checkpoint, ResumeFromEveryIteration) {
  // For every possible interruption point: snapshot the state there,
  // resume from the copy, and compare against the uninterrupted run. With a
  // pool, the snapshot may already hold the look-ahead's pivot closure of
  // the next block; resuming re-applies it, which must change nothing.
  using Sf = MinPlus<float>;
  DenseEntryGen<float> gen(33, 1.0, 1.0f, 30.0f, /*integral=*/true);
  const std::size_t n = 40, b = 8, nb = n / b;
  auto full = gen.full(static_cast<vertex_t>(n));
  blocked_floyd_warshall<Sf>(full.view(), {{.block_size = b}});

  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    BlockedFwOptions opt;
    opt.block_size = b;
    opt.pool = p;
    for (std::size_t stop = 1; stop <= nb; ++stop) {
      Matrix<float> snapshot(n, n);
      auto scratch = gen.full(static_cast<vertex_t>(n));
      blocked_floyd_warshall_range<Sf>(
          scratch.view(), 0, opt,
          [&](std::size_t k_done, MatrixView<float> v) {
            if (k_done == stop)
              snapshot.view().copy_from(MatrixView<const float>(v));
          });
      blocked_floyd_warshall_range<Sf>(snapshot.view(), stop, opt);
      EXPECT_EQ(max_abs_diff<float>(full.view(), snapshot.view()), 0.0)
          << "resume from " << stop << (p ? " with a 4-worker pool" : "");
    }
  }
}

}  // namespace
}  // namespace parfw
