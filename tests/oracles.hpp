// Reference implementations the tests compare the production kernels and
// solvers against. No front door runs them, so they live with the tests.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Row-buffered scalar oracle for multiply_with_pred on ALIASED operands
/// (the blocked-FW panel forms B ≡ C and A ≡ C): each row's new values and
/// preds are scanned into scratch from the live operands in ascending t and
/// committed after the row — Jacobi within a row, Gauss-Seidel across rows.
template <typename S>
void multiply_with_pred_rows_reference(
    MatrixView<const typename S::value_type> A,
    MatrixView<const typename S::value_type> B,
    MatrixView<typename S::value_type> C, MatrixView<const std::int64_t> predB,
    MatrixView<std::int64_t> predC) {
  using T = typename S::value_type;
  PARFW_CHECK(A.rows() == C.rows() && B.cols() == C.cols() &&
              A.cols() == B.rows());
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  std::vector<T> best(n);
  std::vector<std::int64_t> bp(n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      best[j] = C(i, j);
      bp[j] = predC(i, j);
    }
    for (std::size_t t = 0; t < k; ++t)
      for (std::size_t j = 0; j < n; ++j) {
        const T cand = S::mul(A(i, t), B(t, j));
        if (S::less_add(cand, best[j])) {
          best[j] = cand;
          bp[j] = predB(t, j);
        }
      }
    for (std::size_t j = 0; j < n; ++j) {
      C(i, j) = best[j];
      predC(i, j) = bp[j];
    }
  }
}

}  // namespace srgemm

}  // namespace parfw
