// Predecessor witness: the paths post-pass of every engine.
//
// A paths solve runs the values-only solve first and then reads the
// predecessors off the closed matrix D = W* and the input matrix W in one
// pass. The rule, for row i:
//
//   pred(i,i) = i;
//   pred(i,j) = the smallest in-neighbour t ≠ j of j minimising
//               D(i,t) ⊗ W(t,j), or -1 when that minimum is S::zero().
//
// Each pointer is a last edge of a best i→j walk, but ties can close a
// cycle of pointers (zero-weight cycles under min-plus, equal bottlenecks
// under max-min). An O(n) walk over the row's pointers finds such a
// cycle; that row then becomes the breadth-first tree from i over the
// edges that reach the minimum (D(i,u) ⊗ W(u,v) equal to v's minimum),
// out-edges in ascending order. Under exact arithmetic those edges hold
// a best-walk tree rooted at i, so the search reaches every reachable
// vertex and every walk is simple.
//
// Two bodies compute the pointers, chosen by the edge density of W:
//   * scan    — per row i, an ascending scan of every in-edge list (an
//               in-CSR built from W): n·m multiply-adds, random reads
//               confined to row i of D;
//   * product — one non-aliased srgemm::multiply_with_pred D ⊗ W' with the
//               diagonal of W' masked to zero(), predB(t,j) = t, C starting
//               at zero() and predC at -1: the register-blocked argmin
//               kernel, 2n³ flops.
// Both resolve each (i,j) to the first t in ascending order that strictly
// improves on zero(), so they are bit-identical. Rows are independent:
// the result does not depend on the pool or the tiling.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/metrics.hpp"
#include "util/matrix.hpp"
#include "util/thread_pool.hpp"

namespace parfw {

/// Which body computes the witness pointers (see the file comment).
enum class WitnessMethod {
  kAuto,     ///< product above detail::kWitnessProductDensity, else scan
  kScan,     ///< in-CSR scan per row
  kProduct,  ///< one argmin product D ⊗ W'
};

/// What one witness pass did.
struct WitnessStats {
  WitnessMethod method = WitnessMethod::kAuto;  ///< the body that ran
  std::size_t edges = 0;     ///< off-diagonal entries of W that are not zero()
  std::size_t bfs_rows = 0;  ///< rows whose pointers cycled and were rebuilt
  double seconds = 0.0;
};

namespace detail {

/// Edge density m / n² above which the product beats the scan. Measured
/// on a 4-vCPU AVX-512 host, MinPlus<float>, pool of 4 (bench_paths
/// BM_Witness, ER n=1024): the product costs about the same at every
/// density (36-44 ms), the scan grows with m (11 ms at 1%, 30 ms at 40%,
/// 48 ms at 70%) and crosses it between 40% and 70%.
inline constexpr double kWitnessProductDensity = 0.5;

/// Rows per task of the scan (one vector of float rows on AVX-512) and of
/// the product, and the column strip of the product: a task's
/// kWitnessProductRows x kWitnessCols value scratch and the n x
/// kWitnessCols slice of W' it multiplies stay in L2.
inline constexpr std::size_t kWitnessScanRows = 16;
inline constexpr std::size_t kWitnessProductRows = 64;
inline constexpr std::size_t kWitnessCols = 256;

template <typename T>
struct WitnessEdge {
  std::uint32_t v;  ///< the other endpoint
  T w;              ///< W entry of the edge
};

/// Adjacency lists of W without the diagonal and without zero() entries,
/// each in ascending order of the other endpoint.
template <typename T>
struct WitnessCsr {
  std::vector<std::size_t> start;  ///< n + 1 offsets into edges
  std::vector<WitnessEdge<T>> edges;
};

/// How many workers for_rows runs on `pool`: its slot argument is below.
inline std::size_t row_slots(ThreadPool* pool) {
  return pool != nullptr && pool->size() > 1 ? pool->size() : 1;
}

/// Run fn(lo, hi, slot) over [0, n) in chunks of `rows`: on the pool,
/// workers taking chunks from a shared cursor, or on the calling thread.
/// `slot` < row_slots(pool) names the worker, for per-worker scratch.
template <typename Fn>
void for_rows(std::size_t n, std::size_t rows, ThreadPool* pool,
              const Fn& fn) {
  const std::size_t chunks = (n + rows - 1) / rows;
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&](std::size_t slot) {
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      fn(c * rows, std::min(n, (c + 1) * rows), slot);
    }
  };
  if (row_slots(pool) > 1)
    pool->parallel_for(std::min(row_slots(pool), chunks), drain);
  else
    drain(0);
}

/// Rows per task of the out-CSR build.
inline constexpr std::size_t kWitnessBuildRows = 64;

template <typename S>
WitnessCsr<typename S::value_type> out_edges(
    MatrixView<const typename S::value_type> w, ThreadPool* pool) {
  using T = typename S::value_type;
  const std::size_t n = w.rows();
  const auto edge = [&](std::size_t u, std::size_t v) {
    return v != u && w(u, v) != S::zero();
  };
  WitnessCsr<T> g;
  g.start.assign(n + 1, 0);
  for_rows(n, kWitnessBuildRows, pool,
           [&](std::size_t lo, std::size_t hi, std::size_t) {
             for (std::size_t u = lo; u < hi; ++u)
               for (std::size_t v = 0; v < n; ++v)
                 g.start[u + 1] += edge(u, v);
           });
  for (std::size_t u = 0; u < n; ++u) g.start[u + 1] += g.start[u];
  g.edges.resize(g.start[n]);
  for_rows(n, kWitnessBuildRows, pool,
           [&](std::size_t lo, std::size_t hi, std::size_t) {
             for (std::size_t u = lo; u < hi; ++u) {
               std::size_t e = g.start[u];
               for (std::size_t v = 0; v < n; ++v)
                 if (edge(u, v))
                   g.edges[e++] = {static_cast<std::uint32_t>(v), w(u, v)};
             }
           });
  return g;
}

/// The transpose of an out-CSR: in-edge lists, ascending source.
template <typename T>
WitnessCsr<T> in_edges(const WitnessCsr<T>& out) {
  const std::size_t n = out.start.size() - 1;
  WitnessCsr<T> g;
  g.start.assign(n + 1, 0);
  for (const WitnessEdge<T>& e : out.edges) ++g.start[e.v + 1];
  for (std::size_t v = 0; v < n; ++v) g.start[v + 1] += g.start[v];
  g.edges.resize(out.edges.size());
  std::vector<std::size_t> fill(g.start.begin(), g.start.end() - 1);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t e = out.start[u]; e < out.start[u + 1]; ++e)
      g.edges[fill[out.edges[e].v]++] = {static_cast<std::uint32_t>(u),
                                         out.edges[e].w};
  return g;
}

/// Per-worker scratch of the row passes.
template <typename T>
struct WitnessScratch {
  std::vector<std::uint8_t> state;
  std::vector<std::uint32_t> stack;
  std::vector<T> best;
  explicit WitnessScratch(std::size_t n) : state(n), best(n) {
    stack.reserve(n);
  }
};

/// True iff every pointer of row i strictly improves along it: D(i, p[v])
/// strictly better than D(i, v). Then no pointer chain can cycle, and the
/// walk below is not needed (min-plus with positive weights, most rows).
template <typename S>
bool pointers_progress(const typename S::value_type* d, const std::int64_t* p,
                       std::size_t i, std::size_t n) {
  bool ok = true;
  for (std::size_t v = 0; v < n; ++v)
    ok &= v == i || p[v] < 0 || S::less_add(d[p[v]], d[v]);
  return ok;
}

/// True iff the pointers p of row i (p[i] = i, -1 = unreachable) hold a
/// cycle. Each vertex is pushed once: O(n).
inline bool pointers_cycle(const std::int64_t* p, std::size_t i,
                           std::vector<std::uint8_t>& state,
                           std::vector<std::uint32_t>& stack) {
  enum : std::uint8_t { kNew, kOpen, kDone };
  std::fill(state.begin(), state.end(), kNew);
  state[i] = kDone;
  for (std::size_t v = 0; v < state.size(); ++v) {
    std::int64_t u = static_cast<std::int64_t>(v);
    stack.clear();
    while (u >= 0 && state[static_cast<std::size_t>(u)] == kNew) {
      state[static_cast<std::size_t>(u)] = kOpen;
      stack.push_back(static_cast<std::uint32_t>(u));
      u = p[u];
    }
    if (u >= 0 && state[static_cast<std::size_t>(u)] == kOpen) return true;
    for (std::uint32_t x : stack) state[x] = kDone;
  }
  return false;
}

/// Rebuild row i as the breadth-first tree from i over the edges reaching
/// each vertex's minimum. `p` holds the scan/product pointers on entry;
/// a vertex the search does not reach (possible only when rounding or a
/// negative cycle breaks the tree argument) keeps its pointer.
template <typename S>
void bfs_row(const typename S::value_type* d, std::int64_t* p, std::size_t i,
             const WitnessCsr<typename S::value_type>& out,
             WitnessScratch<typename S::value_type>& s) {
  using T = typename S::value_type;
  const std::size_t n = s.state.size();
  // The minimum each vertex's pointer attains; reached marks the tree.
  for (std::size_t v = 0; v < n; ++v) {
    s.state[v] = 0;
    if (v != i && p[v] >= 0) {
      const std::size_t t = static_cast<std::size_t>(p[v]);
      const auto* e = std::lower_bound(
          out.edges.data() + out.start[t], out.edges.data() + out.start[t + 1],
          static_cast<std::uint32_t>(v),
          [](const WitnessEdge<T>& x, std::uint32_t key) { return x.v < key; });
      s.best[v] = S::mul(d[t], e->w);
    }
  }
  s.state[i] = 1;
  s.stack.clear();
  s.stack.push_back(static_cast<std::uint32_t>(i));
  for (std::size_t head = 0; head < s.stack.size(); ++head) {
    const std::uint32_t u = s.stack[head];
    for (std::size_t e = out.start[u]; e < out.start[u + 1]; ++e) {
      const std::uint32_t v = out.edges[e].v;
      if (s.state[v] != 0 || p[v] < 0) continue;
      if (S::mul(d[u], out.edges[e].w) != s.best[v]) continue;
      s.state[v] = 1;
      p[v] = u;
      s.stack.push_back(v);
    }
  }
}

/// Scan pointers of rows [lo, hi) of `d` over the in-edge lists. With
/// lane-wise semiring forms and ids that fit the mask lanes, W rows go at
/// once: their D entries are transposed into `dt` (n x W), so each in-edge
/// costs one vector ⊗, compare and two selects across W rows instead of a
/// serial compare-select chain per row.
template <typename S>
void scan_rows(MatrixView<const typename S::value_type> d,
               const WitnessCsr<typename S::value_type>& in,
               MatrixView<std::int64_t> pred, std::size_t lo, std::size_t hi,
               std::vector<typename S::value_type>& dt) {
  using T = typename S::value_type;
  const std::size_t n = d.cols();
  std::size_t i = lo;
  if constexpr (simd_ops<S>::available && simd::kNativeBytes > 0 &&
                sizeof(T) >= 4) {
    using M = simd::mask_t<T>;
    using Ops = simd_ops<S>;
    constexpr std::size_t W = simd::native_lanes<T>();
    dt.resize(n * W);
    alignas(64) M ids[W];
    for (; i < hi; i += W) {
      const std::size_t rows = std::min(W, hi - i);
      for (std::size_t t = 0; t < n; ++t)
        for (std::size_t r = 0; r < W; ++r)
          dt[t * W + r] = r < rows ? d(i + r, t) : S::zero();
      for (std::size_t j = 0; j < n; ++j) {
        auto best = simd::broadcast<T, W>(S::zero());
        auto bid = simd::broadcast<M, W>(M(-1));
        for (std::size_t e = in.start[j]; e < in.start[j + 1]; ++e) {
          const auto cand = Ops::vmul(simd::load<T, W>(&dt[in.edges[e].v * W]),
                                      simd::broadcast<T, W>(in.edges[e].w));
          const auto imp = Ops::vimproves(cand, best);
          best = simd::vselect(imp, cand, best);
          bid = simd::vselect(
              imp, simd::broadcast<M, W>(static_cast<M>(in.edges[e].v)), bid);
        }
        simd::store<M, W>(ids, bid);
        for (std::size_t r = 0; r < rows; ++r) pred(i + r, j) = ids[r];
      }
    }
  }
  for (; i < hi; ++i) {
    const T* di = d.data() + i * d.ld();
    for (std::size_t j = 0; j < n; ++j) {
      T best = S::zero();
      std::int64_t bp = -1;
      for (std::size_t e = in.start[j]; e < in.start[j + 1]; ++e) {
        const T cand = S::mul(di[in.edges[e].v], in.edges[e].w);
        if (S::less_add(cand, best)) {
          best = cand;
          bp = in.edges[e].v;
        }
      }
      pred(i, j) = bp;
    }
  }
}

}  // namespace detail

/// Write the witness predecessors of the closed matrix `d` of input `w`
/// into `pred` (all n x n). Rows run over `pool` when it has more than one
/// worker, else on the calling thread; the result is the same. When
/// `metrics` is set the pass records paths.witness.seconds{method=scan|
/// product} and paths.witness.bfs_rows into it.
template <typename S>
WitnessStats witness_predecessors(MatrixView<const typename S::value_type> w,
                                  MatrixView<const typename S::value_type> d,
                                  MatrixView<std::int64_t> pred,
                                  ThreadPool* pool = nullptr,
                                  telemetry::Registry* metrics = nullptr,
                                  WitnessMethod method = WitnessMethod::kAuto) {
  using T = typename S::value_type;
  const std::size_t n = w.rows();
  PARFW_CHECK(w.cols() == n && d.rows() == n && d.cols() == n &&
              pred.rows() == n && pred.cols() == n);
  PARFW_CHECK_MSG(n < (std::size_t{1} << 32), "witness: n=" << n
                                                   << " exceeds 32-bit ids");
  const auto t0 = std::chrono::steady_clock::now();
  WitnessStats st;
  const detail::WitnessCsr<T> out = detail::out_edges<S>(w, pool);
  st.edges = out.edges.size();
  if (method == WitnessMethod::kAuto)
    method = static_cast<double>(st.edges) >
                     detail::kWitnessProductDensity * static_cast<double>(n) *
                         static_cast<double>(n)
                 ? WitnessMethod::kProduct
                 : WitnessMethod::kScan;
  st.method = method;

  std::atomic<std::size_t> bfs_rows{0};
  std::vector<detail::WitnessScratch<T>> scratch(detail::row_slots(pool),
                                                 detail::WitnessScratch<T>(n));
  // The cycle check, and the tree rebuild where it fires, of rows [lo, hi).
  const auto settle = [&](std::size_t lo, std::size_t hi,
                          detail::WitnessScratch<T>& s) {
    for (std::size_t i = lo; i < hi; ++i) {
      const T* di = d.data() + i * d.ld();
      std::int64_t* p = pred.data() + i * pred.ld();
      p[i] = static_cast<std::int64_t>(i);
      if (detail::pointers_progress<S>(di, p, i, n) ||
          !detail::pointers_cycle(p, i, s.state, s.stack))
        continue;
      detail::bfs_row<S>(di, p, i, out, s);
      bfs_rows.fetch_add(1, std::memory_order_relaxed);
    }
  };

  if (method == WitnessMethod::kScan) {
    const detail::WitnessCsr<T> in = detail::in_edges(out);
    detail::for_rows(n, detail::kWitnessScanRows, pool,
                     [&](std::size_t lo, std::size_t hi, std::size_t slot) {
                       detail::scan_rows<S>(d, in, pred, lo, hi,
                                            scratch[slot].best);
                       settle(lo, hi, scratch[slot]);
                     });
  } else {
    // W' = W with the diagonal masked, so t = j never wins; tids(t, ·) = t
    // is the predB operand, shared by every column strip.
    Matrix<T> wm(n, n);
    wm.view().copy_from(w);
    for (std::size_t v = 0; v < n; ++v) wm(v, v) = S::zero();
    const std::size_t nc_max = std::min(n, detail::kWitnessCols);
    Matrix<std::int64_t> tids(n, nc_max);
    for (std::size_t t = 0; t < n; ++t)
      std::fill_n(tids.data() + t * nc_max, nc_max,
                  static_cast<std::int64_t>(t));
    // Per-worker C tile: the product's values, thrown away once the
    // argmin has landed in pred.
    std::vector<Matrix<T>> cs(scratch.size());
    for (Matrix<T>& c : cs)
      c = Matrix<T>(std::min(n, detail::kWitnessProductRows), nc_max);
    const auto product_rows = [&](std::size_t lo, std::size_t hi,
                                  std::size_t slot) {
      for (std::size_t c0 = 0; c0 < n; c0 += nc_max) {
        const std::size_t nc = std::min(nc_max, n - c0);
        auto cv = cs[slot].sub(0, 0, hi - lo, nc);
        auto pv = pred.sub(lo, c0, hi - lo, nc);
        for (std::size_t r = 0; r < hi - lo; ++r) {
          std::fill_n(cv.data() + r * cv.ld(), nc, S::zero());
          std::fill_n(pv.data() + r * pv.ld(), nc, std::int64_t{-1});
        }
        srgemm::multiply_with_pred<S>(d.sub(lo, 0, hi - lo, n),
                                      wm.sub(0, c0, n, nc), cv,
                                      tids.sub(0, 0, n, nc), pv);
      }
      settle(lo, hi, scratch[slot]);
    };
    detail::for_rows(n, detail::kWitnessProductRows, pool, product_rows);
  }

  st.bfs_rows = bfs_rows.load();
  st.seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  if (metrics != nullptr) {
    metrics->histogram("paths.witness.seconds",
                       method == WitnessMethod::kScan ? "method=scan"
                                                      : "method=product")
        .observe(st.seconds);
    metrics->counter("paths.witness.bfs_rows").add(st.bfs_rows);
  }
  return st;
}

/// The registry a front-door witness reports into: the run's own when it
/// carries one, else the global registry while telemetry is enabled.
inline telemetry::Registry* witness_registry(telemetry::Registry* run) {
  if (run != nullptr) return run;
  return telemetry::enabled() ? &telemetry::Registry::global() : nullptr;
}

}  // namespace parfw
