// SRGEMM — semiring general matrix-matrix multiply (paper §2.6, §4.1).
//
// Computes the accumulating product
//     C ← C ⊕ (A ⊗ B),   C: m x n,  A: m x k,  B: k x n
// over an arbitrary semiring. For MinPlus this is the min-plus product
//     C[i,j] = min(C[i,j], min_k (A[i,k] + B[k,j]))
// which is the workhorse of blocked Floyd-Warshall: PanelUpdate and
// OuterUpdate are both SRGEMM calls.
//
// The paper's kernel is a CUTLASS-derived CUDA kernel (6.8 TF/s on V100);
// this is its CPU substitute with the same blocked structure: an L2-sized
// macro tile, a k-panel loop, and a register-blocked micro-kernel. The
// kernel hierarchy (DESIGN.md §4.1a) is
//     naive → tiled (scalar) → SIMD (packed) → prepacked
// and every multiply runs one configuration: kAuto resolves to the SIMD
// kernel whenever the semiring has simd_ops (MinPlus/MaxMin/BoolOr/
// PlusTimes) and to the scalar tiled kernel otherwise, on the one
// cache-derived tile geometry of the process (detail::geometry()). Every
// call runs on the calling thread: the callers (blocked FW's tile loop,
// the distributed ranks) own the parallelism.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "semiring/semiring.hpp"
#include "srgemm/srgemm_kernels.hpp"
#include "telemetry/metrics.hpp"
#include "util/matrix.hpp"

namespace parfw::srgemm {

/// Which kernel body services a multiply() call.
enum class Kernel {
  kAuto,   ///< SIMD if the semiring has simd_ops, else scalar tiled
  kNaive,  ///< triple loop (the oracle)
  kTiled,  ///< scalar register-blocked kernel on the raw views
  kSimd,   ///< explicit-SIMD micro-kernel + operand packing
};

inline const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kAuto: return "auto";
    case Kernel::kNaive: return "naive";
    case Kernel::kTiled: return "tiled";
    case Kernel::kSimd: return "simd";
  }
  return "?";
}

/// Register-fragment shape of the SIMD micro-kernel: MR rows x NV native
/// vectors of C accumulators (NR = NV * lanes columns).
enum class MicroShape {
  kAuto,  ///< pick from the vector ISA width
  k4x4,   ///< 4 rows x 4 vectors — fewest B reloads, 21 live registers
  k4x2,   ///< 4 rows x 2 vectors — fits 16-register ISAs (AVX2/SSE)
};

inline const char* micro_name(MicroShape m) {
  switch (m) {
    case MicroShape::kAuto: return "auto";
    case MicroShape::k4x4: return "4x4";
    case MicroShape::k4x2: return "4x2";
  }
  return "?";
}

namespace detail {

/// L1/L2 data-cache sizes in bytes, with conservative fallbacks when the
/// OS does not report them (sysconf returns 0/-1 in some containers).
struct CacheGeometry {
  std::size_t l1 = 32 * 1024;
  std::size_t l2 = 1024 * 1024;
};

inline CacheGeometry detect_cache() {
  CacheGeometry g;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long l1 = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (l1 > 0) g.l1 = static_cast<std::size_t>(l1);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) g.l2 = static_cast<std::size_t>(l2);
#endif
  return g;
}

inline std::size_t round_down(std::size_t x, std::size_t mult,
                              std::size_t lo) {
  const std::size_t r = x / mult * mult;
  return r < lo ? lo : r;
}

/// The tile geometry every multiply runs: tile_m x tile_n C macro-tiles
/// consumed in tile_k-deep k panels, plus the L1 size the argmin kernel
/// cuts its k panels to.
struct Geometry {
  std::size_t l1 = 0;
  std::size_t tile_m = 0, tile_n = 0, tile_k = 0;
};

/// GotoBLAS sizing against a nominal 4-byte element and 64-wide NR:
///  * tile_k: a kk x NR B micro-panel should fill at most half of L1.
///  * tile_m: the packed tile_m x tile_k A tile at most half of L2.
///  * tile_n: bounded so the packed B row panel stays a few MiB.
inline Geometry geometry_for(const CacheGeometry& cache) {
  constexpr std::size_t elem = 4, nr = 64;
  Geometry g;
  g.l1 = cache.l1;
  g.tile_k = std::clamp<std::size_t>(
      round_down(cache.l1 / (2 * nr * elem), 32, 32), 32, 512);
  g.tile_m = std::clamp<std::size_t>(
      round_down(cache.l2 / (2 * g.tile_k * elem), 8, 32), 32, 512);
  g.tile_n = 512;
  return g;
}

/// This host's geometry, probed once per process.
inline const Geometry& geometry() {
  static const Geometry g = geometry_for(detect_cache());
  return g;
}

inline Kernel parse_kernel(const char* e, Kernel fallback) {
  if (e == nullptr) return fallback;
  const std::string v(e);
  if (v == "naive") return Kernel::kNaive;
  if (v == "tiled") return Kernel::kTiled;
  if (v == "simd") return Kernel::kSimd;
  if (v == "auto") return Kernel::kAuto;
  return fallback;  // unrecognised values are ignored
}

inline MicroShape parse_micro(const char* e, MicroShape fallback) {
  if (e == nullptr) return fallback;
  const std::string v(e);
  if (v == "4x4") return MicroShape::k4x4;
  if (v == "4x2") return MicroShape::k4x2;
  if (v == "auto") return MicroShape::kAuto;
  return fallback;
}

/// PARFW_KERNEL / PARFW_MICRO ablation pins, read once per process so
/// every resolution is deterministic; every multiply resolves through
/// them.
struct EnvPins {
  Kernel kernel = Kernel::kAuto;
  MicroShape micro = MicroShape::kAuto;
};

inline const EnvPins& env_pins() {
  static const EnvPins pins = [] {
    EnvPins p;
    p.kernel = parse_kernel(std::getenv("PARFW_KERNEL"), Kernel::kAuto);
    p.micro = parse_micro(std::getenv("PARFW_MICRO"), MicroShape::kAuto);
    return p;
  }();
  return pins;
}

/// kAuto → concrete kernel for semiring S on this build's ISA. The SIMD
/// kernel is only picked when the semiring has lane-wise operator forms;
/// with no vector ISA the Vec fallback is plain scalar arrays, so prefer
/// the tuned scalar kernel there.
template <typename S>
inline Kernel resolve_kernel(Kernel k) {
  if (k == Kernel::kAuto) {
    if (simd_ops<S>::available && simd::kNativeBytes > 0) return Kernel::kSimd;
    return Kernel::kTiled;
  }
  if (k == Kernel::kSimd && !simd_ops<S>::available) return Kernel::kTiled;
  return k;
}

inline MicroShape resolve_micro(MicroShape m) {
  if (m != MicroShape::kAuto) return m;
  // 32-register ISAs take the wide fragments; 16-register ISAs the narrow.
  return simd::kNativeBytes >= 64 ? MicroShape::k4x4 : MicroShape::k4x2;
}

/// Kernel body of one product on the process geometry, with the micro
/// shape the PARFW_MICRO pin resolves to. `prepacked` suppresses operand
/// packing — the operands are promised to be panel-resident already.
template <typename S>
inline void run_slice(MatrixView<const typename S::value_type> A,
                      MatrixView<const typename S::value_type> B,
                      MatrixView<typename S::value_type> C, Kernel kernel,
                      bool prepacked) {
  const Geometry& g = geometry();
  switch (kernel) {
    case Kernel::kNaive:
      naive_kernel<S>(A, B, C);
      return;
    case Kernel::kSimd:
      if constexpr (simd_ops<S>::available) {
        if (resolve_micro(env_pins().micro) == MicroShape::k4x2)
          tiled_kernel_simd<S, 4, 2>(A, B, C, g.tile_m, g.tile_n, g.tile_k,
                                     !prepacked);
        else
          tiled_kernel_simd<S, 4, 4>(A, B, C, g.tile_m, g.tile_n, g.tile_k,
                                     !prepacked);
        return;
      }
      PARFW_CHECK_MSG(false, "SIMD kernel requested for a semiring without "
                             "simd_ops");
      return;
    case Kernel::kTiled:
    case Kernel::kAuto:
      tiled_kernel<S>(A, B, C, g.tile_m, g.tile_n, g.tile_k);
      return;
  }
}

/// Ambient dispatch-level metrics (PARFW_METRICS gate): one set of series
/// per kernel label in the global registry — the resolved {kernel, micro}
/// pair for multiply(), kernel=argmin or kernel=pred_scalar for
/// multiply_with_pred(). Recording costs two atomic adds + two histogram
/// observes per call — measured at the dispatch granularity, not per tile,
/// so the kernels themselves stay untouched.
inline void record_dispatch_metrics(const std::string& labels, std::size_t m,
                                    std::size_t n, std::size_t k,
                                    std::size_t bytes_packed, double seconds) {
  telemetry::Registry& reg = telemetry::Registry::global();
  const double fl = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                    static_cast<double>(k);
  reg.counter("srgemm.calls", labels).inc();
  reg.counter("srgemm.flops", labels).add(static_cast<std::uint64_t>(fl));
  if (bytes_packed > 0)
    reg.counter("srgemm.bytes_packed", labels).add(bytes_packed);
  reg.histogram("srgemm.seconds", labels).observe(seconds);
  if (seconds > 0.0)
    reg.histogram("srgemm.gflops", labels).observe(fl / seconds / 1e9);
}

template <typename S>
inline void multiply_impl(MatrixView<const typename S::value_type> A,
                          MatrixView<const typename S::value_type> B,
                          MatrixView<typename S::value_type> C,
                          bool prepacked) {
  const Kernel kernel = resolve_kernel<S>(env_pins().kernel);
  if (!telemetry::enabled()) {
    run_slice<S>(A, B, C, kernel, prepacked);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  run_slice<S>(A, B, C, kernel, prepacked);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::string labels = std::string("kernel=") + kernel_name(kernel);
  if (kernel == Kernel::kSimd)
    labels +=
        std::string(",micro=") + micro_name(resolve_micro(env_pins().micro));
  // Operand footprint staged through the pack buffers (A and B panels).
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  const bool packs = !prepacked && kernel == Kernel::kSimd;
  record_dispatch_metrics(
      labels, m, n, k,
      packs ? (m * k + k * n) * sizeof(typename S::value_type) : 0, secs);
}

/// True iff the address spans of two non-empty views intersect (a span
/// runs from the first element to one past the last, gaps included, so
/// disjoint sub-views that interleave rows count as overlapping).
template <typename X, typename Y>
inline bool spans_overlap(MatrixView<X> x, MatrixView<Y> y) {
  const auto lo = [](auto v) {
    return reinterpret_cast<std::uintptr_t>(v.data());
  };
  const auto hi = [](auto v) {
    return reinterpret_cast<std::uintptr_t>(v.data() +
                                            (v.rows() - 1) * v.ld() + v.cols());
  };
  return lo(x) < hi(y) && lo(y) < hi(x);
}

}  // namespace detail

/// C ← C ⊕ A ⊗ B. Dimensions are validated; views may alias only if
/// the semiring is idempotent AND the caller understands blocked-FW
/// in-place semantics (PanelUpdate aliases A or B with C deliberately,
/// exactly as Algorithm 2 does).
template <typename S>
void multiply(MatrixView<const typename S::value_type> A,
              MatrixView<const typename S::value_type> B,
              MatrixView<typename S::value_type> C) {
  PARFW_CHECK_MSG(A.rows() == C.rows() && B.cols() == C.cols() &&
                      A.cols() == B.rows(),
                  "srgemm shape mismatch: C(" << C.rows() << "x" << C.cols()
                      << ") += A(" << A.rows() << "x" << A.cols() << ") * B("
                      << B.rows() << "x" << B.cols() << ")");
  if (C.empty() || A.cols() == 0) return;
  detail::multiply_impl<S>(A, B, C, /*prepacked=*/false);
}

/// C ← C ⊕ A ⊗ B where A and B are already panel-resident: dense (or
/// near-dense) operands the caller packed once and reuses across many
/// products — blocked FW's pivot panels, the distributed drivers' received
/// panel buffers, the offload engine's device-resident panels. Skips the
/// per-call operand packing the kernels would otherwise do; everything
/// else (dispatch, tiling) matches multiply().
template <typename S>
void multiply_prepacked(MatrixView<const typename S::value_type> A,
                        MatrixView<const typename S::value_type> B,
                        MatrixView<typename S::value_type> C) {
  PARFW_CHECK_MSG(A.rows() == C.rows() && B.cols() == C.cols() &&
                      A.cols() == B.rows(),
                  "srgemm shape mismatch: C(" << C.rows() << "x" << C.cols()
                      << ") += A(" << A.rows() << "x" << A.cols() << ") * B("
                      << B.rows() << "x" << B.cols() << ")");
  if (C.empty() || A.cols() == 0) return;
  detail::multiply_impl<S>(A, B, C, /*prepacked=*/true);
}

/// Scalar reference for multiply_with_pred: the oracle the fused kernel
/// is diffed against and the baseline bench_paths measures it by. On
/// non-aliased operands the two are bit-identical (each (i,j) is the same
/// ascending-t first-strict-improvement scan).
template <typename S>
void multiply_with_pred_reference(MatrixView<const typename S::value_type> A,
                                  MatrixView<const typename S::value_type> B,
                                  MatrixView<typename S::value_type> C,
                                  MatrixView<const std::int64_t> predB,
                                  MatrixView<std::int64_t> predC) {
  using T = typename S::value_type;
  PARFW_CHECK(A.rows() == C.rows() && B.cols() == C.cols() &&
              A.cols() == B.rows());
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      T best = C(i, j);
      std::int64_t bp = predC(i, j);
      for (std::size_t t = 0; t < k; ++t) {
        const T cand = S::mul(A(i, t), B(t, j));
        if (S::less_add(cand, best)) {
          best = cand;
          bp = predB(t, j);
        }
      }
      C(i, j) = best;
      predC(i, j) = bp;
    }
  }
}

namespace detail {

/// Kernel body of one predecessor product: the register-blocked argmin
/// kernel where the semiring has lane-wise forms, else the scalar
/// reference. Returns the metric label.
template <typename S>
inline const char* run_pred(MatrixView<const typename S::value_type> A,
                            MatrixView<const typename S::value_type> B,
                            MatrixView<typename S::value_type> C,
                            MatrixView<const std::int64_t> predB,
                            MatrixView<std::int64_t> predC) {
  using T = typename S::value_type;
  if constexpr (simd_ops<S>::available && simd::kNativeBytes > 0) {
    // 32-register ISAs hold 4x2 (8 value + 8 index vectors), 16-register
    // ISAs 2x2. The k-panel keeps the kk x NR B micro-panel in half of L1.
    constexpr std::size_t MR = simd::kNativeBytes >= 64 ? 4 : 2, NV = 2;
    constexpr std::size_t NR = NV * simd::native_lanes<T>();
    argmin_kernel<S, MR, NV>(A, B, C, predB, predC,
                             geometry().l1 / (2 * NR * sizeof(T)));
    return "kernel=argmin";
  } else {
    multiply_with_pred_reference<S>(A, B, C, predB, predC);
    return "kernel=pred_scalar";
  }
}

}  // namespace detail

/// Fused predecessor-tracking SRGEMM:
///     where C[i,j] improves through row t of B, predC[i,j] ← predB[t,j]
/// resolving every (i,j) to the first t, in ascending order, that strictly
/// improves on the incumbent C[i,j] (predC[i,j] stays when none does).
/// Bit-identical to multiply_with_pred_reference. C may not overlap A or
/// B, nor predC predB: the witness product (core/witness.hpp) and the
/// bench's outer-update shape are its callers.
template <typename S>
void multiply_with_pred(MatrixView<const typename S::value_type> A,
                        MatrixView<const typename S::value_type> B,
                        MatrixView<typename S::value_type> C,
                        MatrixView<const std::int64_t> predB,
                        MatrixView<std::int64_t> predC) {
  PARFW_CHECK_MSG(A.rows() == C.rows() && B.cols() == C.cols() &&
                      A.cols() == B.rows(),
                  "srgemm shape mismatch: C(" << C.rows() << "x" << C.cols()
                      << ") += A(" << A.rows() << "x" << A.cols() << ") * B("
                      << B.rows() << "x" << B.cols() << ")");
  PARFW_CHECK(predB.rows() == B.rows() && predB.cols() == B.cols());
  PARFW_CHECK(predC.rows() == C.rows() && predC.cols() == C.cols());
  if (C.empty() || A.cols() == 0) return;
  PARFW_CHECK_MSG(!detail::spans_overlap(C, A) &&
                      !detail::spans_overlap(C, B) &&
                      !detail::spans_overlap(predC, predB),
                  "multiply_with_pred: outputs overlap inputs");
  if (!telemetry::enabled()) {
    detail::run_pred<S>(A, B, C, predB, predC);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const char* label = detail::run_pred<S>(A, B, C, predB, predC);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  detail::record_dispatch_metrics(label, C.rows(), C.cols(), A.cols(), 0,
                                  secs);
}

/// Element-wise accumulate C ← C ⊕ X (the offload engine's hostUpdate).
/// Rows stream through the SIMD ⊕ when the semiring has lane-wise forms —
/// this path is DRAM-bandwidth bound and sits on the offload engine's
/// critical path (§4.3's hostUpdate).
template <typename S>
void ewise_add(MatrixView<const typename S::value_type> X,
               MatrixView<typename S::value_type> C) {
  PARFW_CHECK(X.rows() == C.rows() && X.cols() == C.cols());
  using T = typename S::value_type;
  const std::size_t rows = C.rows(), cols = C.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    const T* x = X.data() + i * X.ld();
    T* c = C.data() + i * C.ld();
    std::size_t j = 0;
    if constexpr (simd_ops<S>::available) {
      constexpr std::size_t W = simd::native_lanes<T>();
      for (; j + W <= cols; j += W)
        simd::store<T, W>(
            c + j, simd_ops<S>::vadd(simd::load<T, W>(c + j),
                                     simd::load<T, W>(x + j)));
    }
    for (; j < cols; ++j) c[j] = S::add(c[j], x[j]);
  }
}

/// FLOP count convention used throughout (matches the paper): an SRGEMM of
/// shape (m,n,k) performs 2·m·n·k flops (one ⊕ and one ⊗ per MAC).
inline double flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace parfw::srgemm
