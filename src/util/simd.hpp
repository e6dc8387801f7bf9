// Portable fixed-width SIMD layer for the SRGEMM micro-kernels.
//
// The paper's kernel reaches its rate by making the min-plus inner loop
// explicitly vector-shaped (CUTLASS tile iterators over warp fragments);
// this is the CPU analogue: a Vec<T, W> wrapper over the GCC/Clang vector
// extensions with the handful of lane-wise ops the semirings need
// (load/store/broadcast, add/mul/min/max/or/and and a mask blend). Every
// op lowers to one instruction on SSE2/AVX2/AVX-512/NEON; on compilers
// without vector extensions the same API falls back to scalar arrays that
// the autovectorizer can still chew on, so kernel code is written once.
//
// Width policy: kNativeBytes is the widest vector the target ISA supports
// (64 on AVX-512, 32 on AVX, 16 on SSE2/NEON, sizeof(T) otherwise) and
// native_lanes<T>() is the lane count the micro-kernels are stamped out
// with. Loads and stores are unaligned (memcpy-based) so kernels can walk
// arbitrary leading dimensions; packing buffers are 64-byte aligned anyway.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace parfw::simd {

#if defined(__GNUC__) || defined(__clang__)
#define PARFW_SIMD_VECTOR_EXT 1
#else
#define PARFW_SIMD_VECTOR_EXT 0
#endif

#if PARFW_SIMD_VECTOR_EXT && defined(__AVX512F__)
inline constexpr std::size_t kNativeBytes = 64;
#elif PARFW_SIMD_VECTOR_EXT && defined(__AVX__)
inline constexpr std::size_t kNativeBytes = 32;
#elif PARFW_SIMD_VECTOR_EXT && \
    (defined(__SSE2__) || defined(__ARM_NEON) || defined(__aarch64__))
inline constexpr std::size_t kNativeBytes = 16;
#else
inline constexpr std::size_t kNativeBytes = 0;  // scalar fallback
#endif

/// Lanes per native vector for element type T (>= 1; 4 in scalar fallback
/// so the micro-kernels still get an unrollable shape).
template <typename T>
constexpr std::size_t native_lanes() {
  return kNativeBytes == 0 ? 4 : kNativeBytes / sizeof(T);
}

/// Signed integer type as wide as Bytes — the lane type of comparison
/// masks (vector comparisons yield same-width integer lanes, all-ones on
/// true).
template <std::size_t Bytes>
struct int_of_size;
template <>
struct int_of_size<1> {
  using type = std::int8_t;
};
template <>
struct int_of_size<2> {
  using type = std::int16_t;
};
template <>
struct int_of_size<4> {
  using type = std::int32_t;
};
template <>
struct int_of_size<8> {
  using type = std::int64_t;
};

/// Mask lane type matching T's width.
template <typename T>
using mask_t = typename int_of_size<sizeof(T)>::type;

/// Fixed-width vector of W lanes of T. Trivially copyable; all ops are
/// free functions so the type stays a plain register-sized value.
template <typename T, std::size_t W>
struct Vec {
#if PARFW_SIMD_VECTOR_EXT
  typedef T native __attribute__((vector_size(W * sizeof(T))));
  native v;
#else
  T v[W];
#endif
};

template <typename T, std::size_t W>
inline Vec<T, W> load(const T* p) {
  Vec<T, W> r;
  std::memcpy(&r.v, p, W * sizeof(T));  // unaligned load
  return r;
}

template <typename T, std::size_t W>
inline void store(T* p, Vec<T, W> a) {
  std::memcpy(p, &a.v, W * sizeof(T));  // unaligned store
}

template <typename T, std::size_t W>
inline Vec<T, W> broadcast(T x) {
  Vec<T, W> r;
#if PARFW_SIMD_VECTOR_EXT
  r.v = x - typename Vec<T, W>::native{};  // splat via vector-scalar op
#else
  for (std::size_t i = 0; i < W; ++i) r.v[i] = x;
#endif
  return r;
}

#if PARFW_SIMD_VECTOR_EXT

template <typename T, std::size_t W>
inline Vec<T, W> vadd(Vec<T, W> a, Vec<T, W> b) {
  return {a.v + b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vmul(Vec<T, W> a, Vec<T, W> b) {
  return {a.v * b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vmin(Vec<T, W> a, Vec<T, W> b) {
  return {a.v < b.v ? a.v : b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vmax(Vec<T, W> a, Vec<T, W> b) {
  return {a.v > b.v ? a.v : b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vor(Vec<T, W> a, Vec<T, W> b) {
  return {a.v | b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vand(Vec<T, W> a, Vec<T, W> b) {
  return {a.v & b.v};
}
/// Lanes where either operand is >= limit become limit; the rest take
/// min(a + b, limit). This is the integer tropical ⊗ (saturating add with
/// an absorbing "no path" sentinel) in three vector ops: both inputs are
/// clamped to limit first, so the lane-wise sum cannot overflow even when
/// callers feed values above the sentinel.
template <typename T, std::size_t W>
inline Vec<T, W> vsat_add(Vec<T, W> a, Vec<T, W> b, Vec<T, W> limit) {
  auto ac = a.v < limit.v ? a.v : limit.v;
  auto bc = b.v < limit.v ? b.v : limit.v;
  auto s = ac + bc;
  s = s < limit.v ? s : limit.v;
  // "No path" absorbs even negative weights: any lane with an infinite
  // operand is pinned to limit regardless of the sum.
  return {((a.v >= limit.v) | (b.v >= limit.v)) ? limit.v : s};
}

/// Lane-wise a < b as an all-ones/all-zeros mask of T-width integer lanes.
template <typename T, std::size_t W>
inline Vec<mask_t<T>, W> vcmp_lt(Vec<T, W> a, Vec<T, W> b) {
  Vec<mask_t<T>, W> r;
  // The builtin comparison already yields same-width signed lanes; the
  // convertvector pins down the exact lane type (int vs long spelling).
  r.v = __builtin_convertvector(a.v < b.v,
                                typename Vec<mask_t<T>, W>::native);
  return r;
}
template <typename T, std::size_t W>
inline Vec<mask_t<T>, W> vcmp_gt(Vec<T, W> a, Vec<T, W> b) {
  Vec<mask_t<T>, W> r;
  r.v = __builtin_convertvector(a.v > b.v,
                                typename Vec<mask_t<T>, W>::native);
  return r;
}
/// Lanes where the mask is nonzero take x, the rest keep y.
template <typename M, typename T, std::size_t W>
inline Vec<T, W> vselect(Vec<M, W> m, Vec<T, W> x, Vec<T, W> y) {
  static_assert(sizeof(M) == sizeof(T), "mask lanes must match value lanes");
  return {m.v ? x.v : y.v};
}

#else  // scalar fallback: same API, lane loops

#define PARFW_SIMD_LANEWISE(name, expr)                     \
  template <typename T, std::size_t W>                      \
  inline Vec<T, W> name(Vec<T, W> a, Vec<T, W> b) {         \
    Vec<T, W> r;                                            \
    for (std::size_t i = 0; i < W; ++i) r.v[i] = (expr);    \
    return r;                                               \
  }
PARFW_SIMD_LANEWISE(vadd, a.v[i] + b.v[i])
PARFW_SIMD_LANEWISE(vmul, a.v[i] * b.v[i])
PARFW_SIMD_LANEWISE(vmin, a.v[i] < b.v[i] ? a.v[i] : b.v[i])
PARFW_SIMD_LANEWISE(vmax, a.v[i] > b.v[i] ? a.v[i] : b.v[i])
PARFW_SIMD_LANEWISE(vor, a.v[i] | b.v[i])
PARFW_SIMD_LANEWISE(vand, a.v[i] & b.v[i])
#undef PARFW_SIMD_LANEWISE

template <typename T, std::size_t W>
inline Vec<T, W> vsat_add(Vec<T, W> a, Vec<T, W> b, Vec<T, W> limit) {
  Vec<T, W> r;
  for (std::size_t i = 0; i < W; ++i) {
    if (a.v[i] >= limit.v[i] || b.v[i] >= limit.v[i]) {
      r.v[i] = limit.v[i];
      continue;
    }
    const T s = a.v[i] + b.v[i];
    r.v[i] = s < limit.v[i] ? s : limit.v[i];
  }
  return r;
}

template <typename T, std::size_t W>
inline Vec<mask_t<T>, W> vcmp_lt(Vec<T, W> a, Vec<T, W> b) {
  Vec<mask_t<T>, W> r;
  for (std::size_t i = 0; i < W; ++i)
    r.v[i] = a.v[i] < b.v[i] ? mask_t<T>(-1) : mask_t<T>(0);
  return r;
}
template <typename T, std::size_t W>
inline Vec<mask_t<T>, W> vcmp_gt(Vec<T, W> a, Vec<T, W> b) {
  Vec<mask_t<T>, W> r;
  for (std::size_t i = 0; i < W; ++i)
    r.v[i] = a.v[i] > b.v[i] ? mask_t<T>(-1) : mask_t<T>(0);
  return r;
}
template <typename M, typename T, std::size_t W>
inline Vec<T, W> vselect(Vec<M, W> m, Vec<T, W> x, Vec<T, W> y) {
  static_assert(sizeof(M) == sizeof(T), "mask lanes must match value lanes");
  Vec<T, W> r;
  for (std::size_t i = 0; i < W; ++i) r.v[i] = m.v[i] ? x.v[i] : y.v[i];
  return r;
}

#endif  // PARFW_SIMD_VECTOR_EXT

/// Half of a vector (Half = 0 low, 1 high) as a half-width value. The
/// memcpy lowers to a register extract; it exists so wide logical vectors
/// can be processed at native register width (see vany).
template <std::size_t Half, typename T, std::size_t W>
inline Vec<T, W / 2> vhalf(Vec<T, W> a) {
  static_assert(Half < 2 && W % 2 == 0);
  Vec<T, W / 2> r;
  std::memcpy(&r.v,
              reinterpret_cast<const unsigned char*>(&a.v) +
                  Half * (W / 2) * sizeof(T),
              (W / 2) * sizeof(T));
  return r;
}

/// True iff any lane of a comparison mask is set (log2(W) OR folds).
template <typename M, std::size_t W>
inline bool vany(Vec<M, W> m) {
  if constexpr (W == 1) {
    return m.v[0] != 0;
  } else {
    return vany(vor(vhalf<0>(m), vhalf<1>(m)));
  }
}

}  // namespace parfw::simd
