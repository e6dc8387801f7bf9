// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
// every checkpoint v3 tile and header carries (dist/checkpoint.hpp).
//
// crc32c() picks its path at compile time from the target ISA; all paths
// give the same value for the same bytes:
//   * AVX-512 + VPCLMULQDQ (-march=native on Ice Lake and later): the
//     whole 256-byte blocks are folded with carry-less multiplies, 256
//     bytes per step, and the rest goes through the SSE4.2 instruction;
//   * SSE4.2: the crc32 instruction, 8 bytes per step;
//   * otherwise a portable slice-by-8 table walk.
// A served tile is checked on every cache miss, so the checksum rate is
// part of the miss cost: ~1.3 GB/s (tables), ~17 GB/s (crc32) and
// ~75 GB/s (folded) on a 2.1 GHz Xeon.
//
// Chaining is the zlib convention: crc32c(b, crc32c(a)) == crc32c(a ++ b).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#if defined(__SSE4_2__)
#include <immintrin.h>
#endif
#if defined(__SSE4_2__) && defined(__PCLMUL__) && defined(__AVX512F__) && \
    defined(__VPCLMULQDQ__)
#define PARFW_CRC32C_FOLD 1
#endif

namespace parfw {
namespace detail {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the byte-at-a-time table; t[s][i] is the CRC of byte i
/// followed by s zero bytes, which lets slice-by-8 fold 8 bytes per step.
constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0x82f63b78u : 0u);
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::size_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
  return t;
}
inline constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

inline std::uint32_t crc32c_portable(const std::uint8_t* p, std::size_t n,
                                     std::uint32_t crc) {
  static_assert(std::endian::native == std::endian::little,
                "slice-by-8 folds little-endian words");
  const Crc32cTables& t = kCrc32cTables;
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    w ^= crc;
    crc = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
          t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^
          t[2][(w >> 40) & 0xff] ^ t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  return ~crc;
}

#if defined(PARFW_CRC32C_FOLD)
/// The 64-bit reflected image (degree d at bit 63 - d) of x^e mod P, with
/// P = x^32 + 0x1EDC6F41 the unreflected Castagnoli polynomial.
constexpr std::uint64_t crc32c_xpow(std::size_t e) {
  std::uint32_t r = 1;
  for (; e > 0; --e) r = (r << 1) ^ ((r & 0x80000000u) ? 0x1edc6f41u : 0u);
  std::uint64_t out = 0;
  for (int d = 0; d < 32; ++d)
    if ((r >> d) & 1u) out |= std::uint64_t{1} << (63 - d);
  return out;
}

/// Moves a 16-byte block `bytes` further down the stream: its high-degree
/// half (low qword) times x^(64+d) and its low half times x^d, modulo P,
/// for d = 8 * bytes bits. The -1 undoes the one-degree shift a reflected
/// carry-less multiply of two 64-bit operands leaves in its product.
template <std::size_t bytes>
inline __m128i crc32c_fold_by() {
  constexpr std::uint64_t lo = crc32c_xpow(64 + 8 * bytes - 1);
  constexpr std::uint64_t hi = crc32c_xpow(8 * bytes - 1);
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}
inline __m128i crc32c_fold128(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}
inline __m512i crc32c_fold512(__m512i x, __m512i k, __m512i data) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), data,
                                   0x96);  // a ^ b ^ c
}

/// The CRC register after `n` (a positive multiple of 256) bytes from
/// register `reg`. Sixteen 16-byte lanes in four registers each carry the
/// stream's polynomial at their offset in the current 256-byte window;
/// they are folded 256 bytes forward per step, then into one lane, whose
/// 16 bytes fed through the crc32 instruction give the register.
inline std::uint64_t crc32c_fold(const std::uint8_t* p, std::size_t n,
                                 std::uint64_t reg) {
  const __m512i k256 = _mm512_broadcast_i32x4(crc32c_fold_by<256>());
  const __m512i k64 = _mm512_broadcast_i32x4(crc32c_fold_by<64>());
  __m512i z[4];
  for (int j = 0; j < 4; ++j) z[j] = _mm512_loadu_si512(p + 64 * j);
  z[0] = _mm512_xor_si512(z[0], _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0,
                                                 static_cast<long long>(reg)));
  for (p += 256, n -= 256; n > 0; p += 256, n -= 256)
    for (int j = 0; j < 4; ++j)
      z[j] = crc32c_fold512(z[j], k256, _mm512_loadu_si512(p + 64 * j));
  for (int j = 1; j < 4; ++j) z[j] = crc32c_fold512(z[j - 1], k64, z[j]);
  __m128i x = _mm512_extracti32x4_epi32(z[3], 3);
  x = _mm_xor_si128(x, crc32c_fold128(_mm512_extracti32x4_epi32(z[3], 0),
                                      crc32c_fold_by<48>()));
  x = _mm_xor_si128(x, crc32c_fold128(_mm512_extracti32x4_epi32(z[3], 1),
                                      crc32c_fold_by<32>()));
  x = _mm_xor_si128(x, crc32c_fold128(_mm512_extracti32x4_epi32(z[3], 2),
                                      crc32c_fold_by<16>()));
  reg = _mm_crc32_u64(0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(x)));
  return _mm_crc32_u64(
      reg, static_cast<std::uint64_t>(_mm_extract_epi64(x, 1)));
}
#endif

#if defined(__SSE4_2__)
inline std::uint32_t crc32c_sse42(const std::uint8_t* p, std::size_t n,
                                  std::uint32_t crc) {
  std::uint64_t reg = ~crc;
#if defined(PARFW_CRC32C_FOLD)
  if (const std::size_t whole = n & ~std::size_t{255}; whole > 0) {
    reg = crc32c_fold(p, whole, reg);
    p += whole;
    n -= whole;
  }
#endif
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    reg = _mm_crc32_u64(reg, w);
  }
  auto r32 = static_cast<std::uint32_t>(reg);
  for (; n > 0; ++p, --n) r32 = _mm_crc32_u8(r32, *p);
  return ~r32;
}
#endif

}  // namespace detail

/// CRC32C of `bytes`, continuing from `crc` (0 starts a new checksum).
inline std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                            std::uint32_t crc = 0) {
#if defined(__SSE4_2__)
  return detail::crc32c_sse42(bytes.data(), bytes.size(), crc);
#else
  return detail::crc32c_portable(bytes.data(), bytes.size(), crc);
#endif
}

}  // namespace parfw
