// Kernel bodies for SRGEMM: naive oracle, cache-tiled + register-blocked
// kernel, and the register-blocked argmin-tracking (predecessor) kernel
// for operands that do not overlap.
//
// The tiled kernel follows the canonical GotoBLAS decomposition adapted to
// semirings: C is walked in tile_m x tile_n macro tiles; for each macro
// tile the k dimension is consumed in tile_k panels; inside a panel a
// 4 x 16 register micro-kernel keeps 64 accumulators live across the
// k loop. min/+ has no FMA, matching the paper's observation that SRGEMM
// peak is half the FMA peak (§4.1).
// The SIMD kernels below lift the same structure onto explicit vectors
// (util/simd.hpp + per-semiring simd_ops traits): an MR x (NV*W) register
// fragment of C updated with one broadcast per A element and NV vector
// ops per ⊕/⊗ — the CPU rendition of the CUTLASS warp-fragment loop the
// paper's kernel uses. argmin_kernel runs the same fragment loop with a
// t-index accumulator beside each value accumulator (after Lund & Smith's
// multi-stage FW kernel) and gathers predecessors once per k-panel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "semiring/semiring.hpp"
#include "util/matrix.hpp"
#include "util/simd.hpp"

namespace parfw::srgemm::detail {

template <typename S>
void naive_kernel(MatrixView<const typename S::value_type> A,
                  MatrixView<const typename S::value_type> B,
                  MatrixView<typename S::value_type> C) {
  using T = typename S::value_type;
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      T acc = S::zero();
      for (std::size_t t = 0; t < k; ++t)
        acc = S::add(acc, S::mul(A(i, t), B(t, j)));
      C(i, j) = S::add(C(i, j), acc);
    }
  }
}

/// Micro-kernel: accumulate a MR x NR block of C over k in [0, kk).
/// MR*NR accumulators stay in registers; A is walked down a column strip
/// and B across a row strip. Plain scalar code — the compiler vectorises
/// the NR-wide inner statements (min/add map to vminps/vaddps).
template <typename S, std::size_t MR, std::size_t NR>
inline void micro_kernel(const typename S::value_type* a, std::size_t lda,
                         const typename S::value_type* b, std::size_t ldb,
                         typename S::value_type* c, std::size_t ldc,
                         std::size_t kk) {
  using T = typename S::value_type;
  T acc[MR][NR];
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t j = 0; j < NR; ++j) acc[i][j] = c[i * ldc + j];
  for (std::size_t t = 0; t < kk; ++t) {
    const T* brow = b + t * ldb;
    for (std::size_t i = 0; i < MR; ++i) {
      const T av = a[i * lda + t];
      for (std::size_t j = 0; j < NR; ++j)
        acc[i][j] = S::add(acc[i][j], S::mul(av, brow[j]));
    }
  }
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] = acc[i][j];
}

/// Edge handler for fringe blocks smaller than the register tile.
template <typename S>
inline void edge_kernel(const typename S::value_type* a, std::size_t lda,
                        const typename S::value_type* b, std::size_t ldb,
                        typename S::value_type* c, std::size_t ldc,
                        std::size_t mm, std::size_t nn, std::size_t kk) {
  using T = typename S::value_type;
  for (std::size_t i = 0; i < mm; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      T acc = c[i * ldc + j];
      for (std::size_t t = 0; t < kk; ++t)
        acc = S::add(acc, S::mul(a[i * lda + t], b[t * ldb + j]));
      c[i * ldc + j] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Explicit-SIMD kernels.
// ---------------------------------------------------------------------------

/// SIMD micro-kernel: an MR x (NV*W) fragment of C held in MR*NV vector
/// accumulators across the k loop (W = native lanes for the value type).
/// Per k step: NV vector loads of the B row, MR broadcasts of A, and one
/// vadd(vmul(...)) pair per accumulator — min/+ maps to vminps/vaddps.
template <typename S, std::size_t MR, std::size_t NV>
inline void micro_kernel_simd(const typename S::value_type* a,
                              std::size_t lda,
                              const typename S::value_type* b,
                              std::size_t ldb, typename S::value_type* c,
                              std::size_t ldc, std::size_t kk) {
  using T = typename S::value_type;
  using Ops = simd_ops<S>;
  constexpr std::size_t W = simd::native_lanes<T>();
  using V = simd::Vec<T, W>;
  V acc[MR][NV];
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t v = 0; v < NV; ++v)
      acc[i][v] = simd::load<T, W>(c + i * ldc + v * W);
  for (std::size_t t = 0; t < kk; ++t) {
    const T* brow = b + t * ldb;
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v)
      bv[v] = simd::load<T, W>(brow + v * W);
    for (std::size_t i = 0; i < MR; ++i) {
      const V av = simd::broadcast<T, W>(a[i * lda + t]);
      for (std::size_t v = 0; v < NV; ++v)
        acc[i][v] = Ops::vadd(acc[i][v], Ops::vmul(av, bv[v]));
    }
  }
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t v = 0; v < NV; ++v)
      simd::store<T, W>(c + i * ldc + v * W, acc[i][v]);
}

/// Register-tiled sweep with the SIMD micro-kernel; scalar edge kernels
/// mop up rows/columns beyond the last full MR x (NV*W) fragment.
template <typename S, std::size_t MR, std::size_t NV>
inline void simd_sweep(const typename S::value_type* a, std::size_t lda,
                       const typename S::value_type* b, std::size_t ldb,
                       typename S::value_type* c, std::size_t ldc,
                       std::size_t mm, std::size_t nn, std::size_t kk) {
  constexpr std::size_t NR = NV * simd::native_lanes<typename S::value_type>();
  std::size_t i = 0;
  for (; i + MR <= mm; i += MR) {
    std::size_t j = 0;
    for (; j + NR <= nn; j += NR)
      micro_kernel_simd<S, MR, NV>(a + i * lda, lda, b + j, ldb,
                                   c + i * ldc + j, ldc, kk);
    if (j < nn)
      edge_kernel<S>(a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc, MR,
                     nn - j, kk);
  }
  if (i < mm)
    edge_kernel<S>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, mm - i, nn, kk);
}

/// SIMD macro-kernel. With `pack` set, A macro-tiles and B panels are
/// copied into contiguous scratch before the register sweep (GotoBLAS-
/// style), which keeps the k-loop streams inside one page each when the
/// operands are strided views of a much wider matrix. The loop order is
/// k0 → i0 → j0: the whole kk x n row panel of B is packed once per k0
/// and every A macro-tile exactly once per (i0, k0). Without `pack` the
/// sweep runs directly on the views — the path multiply_prepacked uses
/// when the caller already owns contiguous panels.
template <typename S, std::size_t MR, std::size_t NV>
void tiled_kernel_simd(MatrixView<const typename S::value_type> A,
                       MatrixView<const typename S::value_type> B,
                       MatrixView<typename S::value_type> C,
                       std::size_t tile_m, std::size_t tile_n,
                       std::size_t tile_k, bool pack) {
  using T = typename S::value_type;
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();

  if (!pack) {
    for (std::size_t k0 = 0; k0 < k; k0 += tile_k) {
      const std::size_t kk = std::min(tile_k, k - k0);
      for (std::size_t i0 = 0; i0 < m; i0 += tile_m) {
        const std::size_t mi = std::min(tile_m, m - i0);
        for (std::size_t j0 = 0; j0 < n; j0 += tile_n) {
          const std::size_t nj = std::min(tile_n, n - j0);
          simd_sweep<S, MR, NV>(A.data() + i0 * A.ld() + k0, A.ld(),
                                B.data() + k0 * B.ld() + j0, B.ld(),
                                C.data() + i0 * C.ld() + j0, C.ld(), mi, nj,
                                kk);
        }
      }
    }
    return;
  }

  AlignedBuffer<T> a_pack(std::min(tile_m, m) * std::min(tile_k, k));
  AlignedBuffer<T> b_pack(std::min(tile_k, k) * n);
  for (std::size_t k0 = 0; k0 < k; k0 += tile_k) {
    const std::size_t kk = std::min(tile_k, k - k0);
    for (std::size_t t = 0; t < kk; ++t)
      std::copy_n(B.data() + (k0 + t) * B.ld(), n, b_pack.data() + t * n);
    for (std::size_t i0 = 0; i0 < m; i0 += tile_m) {
      const std::size_t mi = std::min(tile_m, m - i0);
      for (std::size_t i = 0; i < mi; ++i)
        std::copy_n(A.data() + (i0 + i) * A.ld() + k0, kk,
                    a_pack.data() + i * kk);
      for (std::size_t j0 = 0; j0 < n; j0 += tile_n) {
        const std::size_t nj = std::min(tile_n, n - j0);
        simd_sweep<S, MR, NV>(a_pack.data(), kk, b_pack.data() + j0, n,
                              C.data() + i0 * C.ld() + j0, C.ld(), mi, nj,
                              kk);
      }
    }
  }
}

template <typename S>
void tiled_kernel(MatrixView<const typename S::value_type> A,
                  MatrixView<const typename S::value_type> B,
                  MatrixView<typename S::value_type> C, std::size_t tile_m,
                  std::size_t tile_n, std::size_t tile_k) {
  using T = typename S::value_type;
  constexpr std::size_t MR = 4, NR = 16;
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();

  for (std::size_t i0 = 0; i0 < m; i0 += tile_m) {
    const std::size_t mi = std::min(tile_m, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += tile_n) {
      const std::size_t nj = std::min(tile_n, n - j0);
      for (std::size_t k0 = 0; k0 < k; k0 += tile_k) {
        const std::size_t kk = std::min(tile_k, k - k0);
        // Register-tiled sweep of the (mi x nj) macro tile.
        std::size_t i = 0;
        for (; i + MR <= mi; i += MR) {
          const T* a = A.data() + (i0 + i) * A.ld() + k0;
          std::size_t j = 0;
          for (; j + NR <= nj; j += NR) {
            micro_kernel<S, MR, NR>(a, A.ld(),
                                    B.data() + k0 * B.ld() + (j0 + j), B.ld(),
                                    C.data() + (i0 + i) * C.ld() + (j0 + j),
                                    C.ld(), kk);
          }
          if (j < nj)
            edge_kernel<S>(a, A.ld(), B.data() + k0 * B.ld() + (j0 + j),
                           B.ld(), C.data() + (i0 + i) * C.ld() + (j0 + j),
                           C.ld(), MR, nj - j, kk);
        }
        if (i < mi)
          edge_kernel<S>(A.data() + (i0 + i) * A.ld() + k0, A.ld(),
                         B.data() + k0 * B.ld() + j0, B.ld(),
                         C.data() + (i0 + i) * C.ld() + j0, C.ld(), mi - i,
                         nj, kk);
      }
    }
  }
}

/// Scalar argmin over one k-panel for fringe blocks: the reference
/// ascending-t first-strict-improvement scan, in place on C and predC.
template <typename S>
inline void argmin_edge_kernel(const typename S::value_type* a,
                               std::size_t lda,
                               const typename S::value_type* b,
                               std::size_t ldb, typename S::value_type* c,
                               std::size_t ldc, const std::int64_t* pb,
                               std::size_t ldpb, std::int64_t* pc,
                               std::size_t ldpc, std::size_t mm,
                               std::size_t nn, std::size_t kk) {
  using T = typename S::value_type;
  for (std::size_t i = 0; i < mm; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      T best = c[i * ldc + j];
      std::int64_t bp = pc[i * ldpc + j];
      for (std::size_t t = 0; t < kk; ++t) {
        const T cand = S::mul(a[i * lda + t], b[t * ldb + j]);
        if (S::less_add(cand, best)) {
          best = cand;
          bp = pb[t * ldpb + j];
        }
      }
      c[i * ldc + j] = best;
      pc[i * ldpc + j] = bp;
    }
  }
}

/// Argmin micro-kernel: an MR x (NV*W) fragment of C in value
/// accumulators plus as many t-index accumulators (mask_t<T> lanes, -1 =
/// not improved in this panel), held across the k-panel. A strict
/// improvement blends in both the candidate and t, so each lane keeps the
/// first t attaining its minimum; predC(i,j) = predB(t*, j) is then
/// gathered once per improved lane at the end of the panel.
template <typename S, std::size_t MR, std::size_t NV>
inline void argmin_micro_simd(const typename S::value_type* a,
                              std::size_t lda,
                              const typename S::value_type* b,
                              std::size_t ldb, typename S::value_type* c,
                              std::size_t ldc, const std::int64_t* pb,
                              std::size_t ldpb, std::int64_t* pc,
                              std::size_t ldpc, std::size_t kk) {
  using T = typename S::value_type;
  using M = simd::mask_t<T>;
  using Ops = simd_ops<S>;
  constexpr std::size_t W = simd::native_lanes<T>();
  using V = simd::Vec<T, W>;
  using I = simd::Vec<M, W>;
  const I none = simd::broadcast<M, W>(M{-1});
  V acc[MR][NV];
  I idx[MR][NV];
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t v = 0; v < NV; ++v) {
      acc[i][v] = simd::load<T, W>(c + i * ldc + v * W);
      idx[i][v] = none;
    }
  for (std::size_t t = 0; t < kk; ++t) {
    const T* brow = b + t * ldb;
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v)
      bv[v] = simd::load<T, W>(brow + v * W);
    const I tv = simd::broadcast<M, W>(static_cast<M>(t));
    for (std::size_t i = 0; i < MR; ++i) {
      const V av = simd::broadcast<T, W>(a[i * lda + t]);
      for (std::size_t v = 0; v < NV; ++v) {
        const V cand = Ops::vmul(av, bv[v]);
        const auto imp = Ops::vimproves(cand, acc[i][v]);
        acc[i][v] = simd::vselect(imp, cand, acc[i][v]);
        idx[i][v] = simd::vselect(imp, tv, idx[i][v]);
      }
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t v = 0; v < NV; ++v) {
      simd::store<T, W>(c + i * ldc + v * W, acc[i][v]);
      if (!simd::vany(simd::vcmp_gt(idx[i][v], none))) continue;
      M lanes[W];
      simd::store<M, W>(lanes, idx[i][v]);
      std::int64_t* prow = pc + i * ldpc + v * W;
      for (std::size_t l = 0; l < W; ++l)
        if (lanes[l] >= 0)
          prow[l] = pb[static_cast<std::size_t>(lanes[l]) * ldpb + v * W + l];
    }
  }
}

/// Rows [0, mm) of one NV-vector column strip: MR-row fragments, then
/// single-row fragments for the row fringe.
template <typename S, std::size_t MR, std::size_t NV>
inline void argmin_strip(const typename S::value_type* a, std::size_t lda,
                         const typename S::value_type* b, std::size_t ldb,
                         typename S::value_type* c, std::size_t ldc,
                         const std::int64_t* pb, std::size_t ldpb,
                         std::int64_t* pc, std::size_t ldpc, std::size_t mm,
                         std::size_t kk) {
  std::size_t i = 0;
  for (; i + MR <= mm; i += MR)
    argmin_micro_simd<S, MR, NV>(a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                                 pb, ldpb, pc + i * ldpc, ldpc, kk);
  for (; i < mm; ++i)
    argmin_micro_simd<S, 1, NV>(a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                                pb, ldpb, pc + i * ldpc, ldpc, kk);
}

/// Register-blocked argmin SRGEMM for operands that do not overlap:
/// bit-identical to multiply_with_pred_reference. k is consumed in panels
/// of at most `panel_k` rows, capped so every t fits in a mask_t<T> lane
/// (127 for 1-byte semirings); across panels a lane only moves on a
/// strict improvement, so the first t attaining the minimum still wins.
/// Within a panel the column strips run outermost, so one kk x NR
/// micro-panel of B serves every row of C. Columns past the last full
/// vector take the scalar edge kernel.
template <typename S, std::size_t MR, std::size_t NV>
void argmin_kernel(MatrixView<const typename S::value_type> A,
                   MatrixView<const typename S::value_type> B,
                   MatrixView<typename S::value_type> C,
                   MatrixView<const std::int64_t> predB,
                   MatrixView<std::int64_t> predC, std::size_t panel_k) {
  using T = typename S::value_type;
  using M = simd::mask_t<T>;
  constexpr std::size_t W = simd::native_lanes<T>();
  constexpr std::size_t NR = NV * W;
  constexpr auto kMaxPanel =
      static_cast<std::size_t>(std::numeric_limits<M>::max());
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  const std::size_t kp = std::clamp<std::size_t>(panel_k, 1, kMaxPanel);
  const std::size_t lda = A.ld(), ldb = B.ld(), ldc = C.ld();
  const std::size_t ldpb = predB.ld(), ldpc = predC.ld();
  for (std::size_t k0 = 0; k0 < k; k0 += kp) {
    const std::size_t kk = std::min(kp, k - k0);
    const T* a = A.data() + k0;
    const T* b = B.data() + k0 * ldb;
    const std::int64_t* pb = predB.data() + k0 * ldpb;
    std::size_t j = 0;
    for (; j + NR <= n; j += NR)
      argmin_strip<S, MR, NV>(a, lda, b + j, ldb, C.data() + j, ldc, pb + j,
                              ldpb, predC.data() + j, ldpc, m, kk);
    for (; j + W <= n; j += W)
      argmin_strip<S, MR, 1>(a, lda, b + j, ldb, C.data() + j, ldc, pb + j,
                             ldpb, predC.data() + j, ldpc, m, kk);
    if (j < n)
      argmin_edge_kernel<S>(a, lda, b + j, ldb, C.data() + j, ldc, pb + j,
                            ldpb, predC.data() + j, ldpc, m, n - j, kk);
  }
}

}  // namespace parfw::srgemm::detail
