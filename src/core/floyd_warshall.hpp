// Sequential Floyd-Warshall (paper Algorithm 1), generic over semirings,
// with negative-cycle detection and path reconstruction from a
// predecessor matrix (core/witness.hpp computes one).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "semiring/semiring.hpp"
#include "util/matrix.hpp"

namespace parfw {

/// In-place Floyd-Warshall on an n x n distance matrix:
///   Dist[i,j] ← Dist[i,j] ⊕ (Dist[i,k] ⊗ Dist[k,j])  for k = 0..n-1.
/// The matrix must be initialised per Graph::distance_matrix (diagonal at
/// the semiring one). Requires an idempotent ⊕ (shortest-path-like
/// semirings); checked at compile time.
template <typename S>
void floyd_warshall(MatrixView<typename S::value_type> dist) {
  static_assert(is_idempotent<S>(), "FW requires an idempotent semiring");
  using T = typename S::value_type;
  PARFW_CHECK(dist.rows() == dist.cols());
  const std::size_t n = dist.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const T* rowk = dist.data() + k * dist.ld();
    for (std::size_t i = 0; i < n; ++i) {
      T* rowi = dist.data() + i * dist.ld();
      const T dik = rowi[k];
      if (dik == S::zero()) continue;  // no i→k path: no updates via k
      for (std::size_t j = 0; j < n; ++j)
        rowi[j] = S::add(rowi[j], S::mul(dik, rowk[j]));
    }
  }
}

/// Initialise the predecessor matrix from an edge-initialised distance
/// matrix: pred(i,j) = i for every edge i→j and i == j, else -1.
template <typename S>
void init_predecessors(MatrixView<const typename S::value_type> dist,
                       MatrixView<std::int64_t> pred) {
  const std::size_t n = dist.rows();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j)
        pred(i, j) = static_cast<std::int64_t>(i);
      else
        pred(i, j) = (dist(i, j) != S::zero()) ? static_cast<std::int64_t>(i)
                                               : std::int64_t{-1};
    }
}

/// True iff the closed matrix witnesses a negative cycle: some diagonal
/// entry strictly better than the semiring one (min-plus: dist(v,v) < 0).
template <typename S>
bool has_negative_cycle(MatrixView<const typename S::value_type> dist) {
  for (std::size_t v = 0; v < dist.rows(); ++v)
    if (S::less_add(dist(v, v), S::one())) return true;
  return false;
}

/// Reconstruct the shortest path src→dst from a predecessor matrix.
/// Empty vector when dst is unreachable; {src} when src == dst.
std::vector<std::int64_t> reconstruct_path(MatrixView<const std::int64_t> pred,
                                           std::int64_t src, std::int64_t dst);

}  // namespace parfw
