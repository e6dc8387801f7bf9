#include <queue>
#include <utility>

#include "sssp/sssp.hpp"
#include "util/check.hpp"

namespace parfw::sssp {

SsspResult dijkstra(const Graph& g, vertex_t source) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  PARFW_CHECK(source >= 0 && static_cast<std::size_t>(source) < n);
  const Graph::Csr& csr = g.csr();

  SsspResult r;
  r.dist.assign(n, kInf);
  r.parent.assign(n, -1);
  r.dist[static_cast<std::size_t>(source)] = 0.0;

  using Item = std::pair<double, vertex_t>;  // (dist, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  pq.emplace(0.0, source);

  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    const std::size_t ui = static_cast<std::size_t>(u);
    if (d > r.dist[ui]) continue;  // stale entry
    for (std::size_t e = csr.offsets[ui]; e < csr.offsets[ui + 1]; ++e) {
      const double w = csr.weights[e];
      PARFW_CHECK_MSG(w >= 0.0, "Dijkstra requires non-negative weights");
      const vertex_t v = csr.targets[e];
      const std::size_t vi = static_cast<std::size_t>(v);
      const double nd = d + w;
      if (nd < r.dist[vi]) {
        r.dist[vi] = nd;
        r.parent[vi] = u;
        pq.emplace(nd, v);
      }
    }
  }
  return r;
}

}  // namespace parfw::sssp
