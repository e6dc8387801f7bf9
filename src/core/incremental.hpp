// Incremental Floyd-Warshall (paper §7 future work).
//
// After a full APSP closure, an edge-weight decrease (or new edge) can be
// folded in with an O(n²) pass instead of an O(n³) recompute:
//     Dist[i,j] ← Dist[i,j] ⊕ Dist[i,u] ⊗ w' ⊗ Dist[v,j]
// Weight *increases* invalidate paths and require recomputation; the API
// reports which case applied.
#pragma once

#include <cstdint>
#include <span>

#include "semiring/semiring.hpp"
#include "util/matrix.hpp"

namespace parfw {

struct EdgeUpdate {
  std::int64_t src;
  std::int64_t dst;
  double new_weight;
};

enum class IncrementalOutcome {
  kApplied,         ///< folded in with the O(n²) rule
  kNoEffect,        ///< new weight does not beat the current closure
  kNeedsRecompute,  ///< weight increase on a potentially-used edge
};

/// Apply a single edge update to a closed distance matrix.
template <typename S>
IncrementalOutcome incremental_update(MatrixView<typename S::value_type> dist,
                                      const EdgeUpdate& u) {
  static_assert(is_idempotent<S>());
  using T = typename S::value_type;
  PARFW_CHECK(dist.rows() == dist.cols());
  const std::size_t n = dist.rows();
  PARFW_CHECK(u.src >= 0 && u.dst >= 0 &&
              static_cast<std::size_t>(u.src) < n &&
              static_cast<std::size_t>(u.dst) < n);
  const T w = static_cast<T>(u.new_weight);
  const T cur = dist(u.src, u.dst);

  if (!S::less_add(w, cur)) {
    // Not an improvement. If the old closure value could have routed
    // through the edge at a now-stale weight we cannot tell locally —
    // conservatively report recompute only when the weight strictly
    // worsens an existing direct optimal value.
    return S::less_add(cur, w) ? IncrementalOutcome::kNeedsRecompute
                               : IncrementalOutcome::kNoEffect;
  }

  // Dist[i,j] ⊕= Dist[i,src] ⊗ w ⊗ Dist[dst,j].
  for (std::size_t i = 0; i < n; ++i) {
    const T head = S::mul(dist(i, u.src), w);
    if (head == S::zero()) continue;
    for (std::size_t j = 0; j < n; ++j)
      dist(i, j) = S::add(dist(i, j), S::mul(head, dist(u.dst, j)));
  }
  return IncrementalOutcome::kApplied;
}

/// Apply a batch of decreases; returns the number folded in. Any update
/// reporting kNeedsRecompute aborts and returns immediately with
/// `needs_recompute = true` so the caller can rerun the full solver.
template <typename S>
std::size_t incremental_update_batch(MatrixView<typename S::value_type> dist,
                                     std::span<const EdgeUpdate> updates,
                                     bool* needs_recompute) {
  std::size_t applied = 0;
  if (needs_recompute != nullptr) *needs_recompute = false;
  for (const EdgeUpdate& u : updates) {
    const IncrementalOutcome out = incremental_update<S>(dist, u);
    if (out == IncrementalOutcome::kApplied) ++applied;
    if (out == IncrementalOutcome::kNeedsRecompute) {
      if (needs_recompute != nullptr) *needs_recompute = true;
      return applied;
    }
  }
  return applied;
}

}  // namespace parfw
