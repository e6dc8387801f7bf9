// Reference implementations the tests compare the production kernels and
// solvers against. No front door runs them, so they live with the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "srgemm/srgemm.hpp"
#include "sssp/sssp.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"

namespace parfw {

namespace sssp {

/// n Dijkstra runs without reweighting (valid for non-negative weights) —
/// the simplest APSP oracle.
inline Matrix<double> dijkstra_apsp(const Graph& g) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  Matrix<double> out(n, n);
  for (std::size_t s = 0; s < n; ++s) {
    const SsspResult r = dijkstra(g, static_cast<vertex_t>(s));
    for (std::size_t v = 0; v < n; ++v) out(s, v) = r.dist[v];
  }
  return out;
}

}  // namespace sssp

namespace srgemm {

/// Naive triple loop — the oracle the tiled and SIMD kernels are
/// validated against.
template <typename S>
void multiply_reference(MatrixView<const typename S::value_type> A,
                        MatrixView<const typename S::value_type> B,
                        MatrixView<typename S::value_type> C) {
  PARFW_CHECK(A.rows() == C.rows() && B.cols() == C.cols() &&
              A.cols() == B.rows());
  detail::naive_kernel<S>(A, B, C);
}

}  // namespace srgemm

/// Scalar O(n³) witness oracle (the rule of core/witness.hpp, written
/// from its definition with no CSR, no vectors and no tiling): for j ≠ i,
/// pred(i,j) is the smallest t ≠ j with W(t,j) ≠ zero() minimising
/// D(i,t) ⊗ W(t,j), or -1 when that minimum is zero(); pred(i,i) = i. A
/// row whose pointers cycle becomes the breadth-first tree from i over the
/// edges (u,v), u ascending in FIFO order and v ascending, whose
/// D(i,u) ⊗ W(u,v) equals v's minimum; unreached vertices keep their
/// pointer.
template <typename S>
Matrix<std::int64_t> witness_oracle(
    MatrixView<const typename S::value_type> w,
    MatrixView<const typename S::value_type> d) {
  using T = typename S::value_type;
  const std::size_t n = w.rows();
  Matrix<std::int64_t> pred(n, n);
  std::vector<T> best(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      best[j] = S::zero();
      std::int64_t bp = -1;
      for (std::size_t t = 0; t < n; ++t) {
        if (t == j || w(t, j) == S::zero()) continue;
        const T cand = S::mul(d(i, t), w(t, j));
        if (S::less_add(cand, best[j])) {
          best[j] = cand;
          bp = static_cast<std::int64_t>(t);
        }
      }
      pred(i, j) = j == i ? static_cast<std::int64_t>(i) : bp;
    }
    // A cycle: some walk of n steps from a vertex neither ends at i nor
    // reaches -1.
    bool cycle = false;
    for (std::size_t v = 0; v < n && !cycle; ++v) {
      std::int64_t u = static_cast<std::int64_t>(v);
      for (std::size_t step = 0;
           step < n && u >= 0 && u != static_cast<std::int64_t>(i); ++step)
        u = pred(i, static_cast<std::size_t>(u));
      cycle = u >= 0 && u != static_cast<std::int64_t>(i);
    }
    if (!cycle) continue;
    std::vector<bool> reached(n, false);
    std::vector<std::size_t> queue{i};
    reached[i] = true;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const std::size_t u = queue[h];
      for (std::size_t v = 0; v < n; ++v) {
        if (v == u || reached[v] || pred(i, v) < 0 || w(u, v) == S::zero())
          continue;
        if (!(S::mul(d(i, u), w(u, v)) == best[v])) continue;
        reached[v] = true;
        pred(i, v) = static_cast<std::int64_t>(u);
        queue.push_back(v);
      }
    }
  }
  return pred;
}

/// Empty when every reachable pair's predecessor walk from j back to i
/// is simple, uses only edges of `w`, and sums exactly to D(i,j) (the
/// caller's weights must be integral); else a description of the first
/// failure.
template <typename S>
std::string walk_violation(MatrixView<const typename S::value_type> w,
                           MatrixView<const typename S::value_type> d,
                           MatrixView<const std::int64_t> pred) {
  using T = typename S::value_type;
  const std::size_t n = w.rows();
  std::vector<std::size_t> seen(n, SIZE_MAX);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || pred(i, j) < 0) continue;
      T len = S::one();
      std::size_t cur = j;
      std::size_t stamp = i * n + j;
      seen[cur] = stamp;
      while (cur != i) {
        const std::int64_t p = pred(i, cur);
        if (p < 0 || w(static_cast<std::size_t>(p), cur) == S::zero())
          return "walk " + std::to_string(i) + "->" + std::to_string(j) +
                 " leaves the graph at " + std::to_string(cur);
        len = S::mul(w(static_cast<std::size_t>(p), cur), len);
        cur = static_cast<std::size_t>(p);
        if (seen[cur] == stamp)
          return "walk " + std::to_string(i) + "->" + std::to_string(j) +
                 " repeats vertex " + std::to_string(cur);
        seen[cur] = stamp;
      }
      if (!(len == d(i, j)))
        return "walk " + std::to_string(i) + "->" + std::to_string(j) +
               " does not sum to D(i,j)";
    }
  return {};
}

}  // namespace parfw
