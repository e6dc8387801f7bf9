// Unified path-query surface.
//
// One request/response vocabulary shared by every layer that answers
// "what is the shortest path from s to t?":
//
//   * ApspResult<T>::query/answer — in-memory results (core/apsp.hpp)
//   * serve::PathService          — tile-backed serving (serve/path_service.hpp)
//   * tools/apsp_cli              — the --query flag (batched, repeatable)
//
// A QueryResult always carries the closed semiring distance; the path
// field is meaningful only when status == kFound AND the batch asked for
// paths. The three-way status replaces the old ApspResult::path contract,
// which returned an empty vector for both "unreachable" and "paths were
// never tracked" — indistinguishable to callers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace parfw {

enum class PathStatus : std::uint8_t {
  kFound = 0,        ///< dst reachable; path populated when requested
  kUnreachable = 1,  ///< no path exists (distance is the semiring zero)
  kNotTracked = 2,   ///< solve ran without track_paths; distance only
};

struct PathQuery {
  std::int64_t src = 0;
  std::int64_t dst = 0;
};

/// A batch of point-to-point queries. One-to-many is expressed as many
/// pairs sharing a source — answerers exploit the shared source tiles
/// through their caches, not through a special request shape.
struct QueryBatch {
  std::vector<PathQuery> pairs;
  /// When false, answerers skip path reconstruction (status + distance
  /// only). This is what lets distance queries run against values-only
  /// manifests that never tracked predecessors.
  bool want_paths = true;

  void add(std::int64_t src, std::int64_t dst) { pairs.push_back({src, dst}); }
  void add_one_to_many(std::int64_t src, std::span<const std::int64_t> dsts) {
    pairs.reserve(pairs.size() + dsts.size());
    for (std::int64_t d : dsts) pairs.push_back({src, d});
  }
  static QueryBatch one_to_all(std::int64_t src, std::int64_t n) {
    QueryBatch b;
    b.pairs.reserve(static_cast<std::size_t>(n));
    for (std::int64_t d = 0; d < n; ++d) b.pairs.push_back({src, d});
    return b;
  }
  std::size_t size() const { return pairs.size(); }
  bool empty() const { return pairs.empty(); }
};

template <typename T>
struct QueryResult {
  PathStatus status = PathStatus::kNotTracked;
  /// Closed semiring distance dist(src, dst); always valid (the semiring
  /// zero when unreachable).
  T distance{};
  /// Vertex ids src..dst inclusive ({src} when src == dst). Empty unless
  /// status == kFound and the batch requested paths.
  std::vector<std::int64_t> path;
};

}  // namespace parfw
