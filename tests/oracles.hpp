// Reference implementations the tests compare the production kernels and
// solvers against. No front door runs them, so they live with the tests.
#pragma once

#include <cstddef>

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

}  // namespace parfw
