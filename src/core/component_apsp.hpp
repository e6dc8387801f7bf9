// Component-wise APSP (paper §2.1 note and §6: "On graphs with multiple
// components one may use a graph connected-components algorithm, and
// perform APSP on each connected component").
//
// Edges never cross weakly-connected components, so the distance matrix
// is block diagonal under the component permutation: solving each
// component independently costs Σ n_c³ instead of n³ — a large win when
// components are balanced (k components ⇒ k²× fewer flops).
#pragma once

#include <vector>

#include "core/apsp.hpp"
#include "graph/connected_components.hpp"

namespace parfw {

/// APSP via per-component solves. Results are reported in the ORIGINAL
/// vertex numbering; cross-component distances are the semiring zero and
/// cross-component predecessors are -1.
template <typename S>
ApspResult<typename S::value_type> component_apsp(const Graph& g,
                                                  const ApspOptions& opt = {}) {
  using T = typename S::value_type;
  const vertex_t n = g.num_vertices();
  const std::vector<vertex_t> labels = connected_components(g);
  const vertex_t k = num_components(labels);

  // Vertex lists per component and original->local index maps.
  std::vector<std::vector<vertex_t>> members(static_cast<std::size_t>(k));
  std::vector<vertex_t> local_of(static_cast<std::size_t>(n));
  for (vertex_t v = 0; v < n; ++v) {
    auto& m = members[static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])];
    local_of[static_cast<std::size_t>(v)] = static_cast<vertex_t>(m.size());
    m.push_back(v);
  }

  ApspResult<T> out;
  out.dist = Matrix<T>(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                       S::zero());
  for (vertex_t v = 0; v < n; ++v) out.dist(v, v) = S::one();
  if (opt.track_paths) {
    out.pred.emplace(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                     std::int64_t{-1});
    for (vertex_t v = 0; v < n; ++v) (*out.pred)(v, v) = v;
  }

  // Per-component subgraphs, solved independently.
  std::vector<Graph> subs;
  subs.reserve(static_cast<std::size_t>(k));
  for (vertex_t c = 0; c < k; ++c)
    subs.emplace_back(static_cast<vertex_t>(members[static_cast<std::size_t>(c)].size()));
  for (const Edge& e : g.edges()) {
    const vertex_t c = labels[static_cast<std::size_t>(e.src)];
    PARFW_DCHECK(c == labels[static_cast<std::size_t>(e.dst)]);
    subs[static_cast<std::size_t>(c)].add_edge(
        local_of[static_cast<std::size_t>(e.src)],
        local_of[static_cast<std::size_t>(e.dst)], e.weight);
  }

  for (vertex_t c = 0; c < k; ++c) {
    const auto& m = members[static_cast<std::size_t>(c)];
    const auto r = apsp<S>(subs[static_cast<std::size_t>(c)], opt);
    for (std::size_t i = 0; i < m.size(); ++i)
      for (std::size_t j = 0; j < m.size(); ++j) {
        out.dist(m[i], m[j]) = r.dist(i, j);
        if (opt.track_paths) {
          const std::int64_t lp = (*r.pred)(i, j);
          (*out.pred)(m[i], m[j]) =
              lp < 0 ? -1 : m[static_cast<std::size_t>(lp)];
        }
      }
  }
  return out;
}

}  // namespace parfw
