// Single-source shortest path algorithms and Johnson's APSP — the
// related-work comparators from paper §6. They double as independent
// test oracles for the Floyd-Warshall implementations.
#pragma once

#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "util/matrix.hpp"

namespace parfw::sssp {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct SsspResult {
  std::vector<double> dist;       ///< dist[v], kInf when unreachable
  std::vector<vertex_t> parent;   ///< parent[v] on the shortest-path tree, -1 at roots/unreachable
};

/// Dijkstra with a binary heap (lazy deletion). Requires non-negative
/// weights (checked).
SsspResult dijkstra(const Graph& g, vertex_t source);

/// Bellman-Ford. Handles negative edges; sets *negative_cycle when a
/// negative cycle is reachable from the source (optional out-param).
SsspResult bellman_ford(const Graph& g, vertex_t source,
                        bool* negative_cycle = nullptr);

/// Johnson's APSP: Bellman-Ford reweighting + n Dijkstra runs.
/// O(nm + n² log n); the sparse-graph comparator (paper §6). Throws on
/// negative cycles.
Matrix<double> johnson_apsp(const Graph& g);

}  // namespace parfw::sssp
