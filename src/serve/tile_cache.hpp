// Byte-budgeted tile cache for the serving tier (DESIGN.md §4.12).
//
// PathService fetches b x b value/pred tiles out of checkpoint blobs on
// demand; this cache keeps the hot ones resident under a strict byte
// budget. Policy: CLOCK (second-chance) eviction, optionally guarded by a
// 2Q-style "second touch" admission filter — a tile enters the cache only
// on its second miss within the ghost window, so a pure scan (each tile
// touched once) cannot wash out the hot set that a Zipf-skewed query
// stream builds up.
//
// The cache is single-threaded by design: each PathService owns one and
// shares it with no other thread. Everything is deterministic under a
// fixed request stream — no clocks, no randomness — so tests can assert
// exact hit/miss/eviction counts.
//
// INVARIANT (tested): bytes_resident <= budget_bytes after every
// operation. A tile larger than the whole budget is never admitted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace parfw::serve {

enum class TileKind : std::uint8_t {
  kValue = 0,  ///< b x b distance entries
  kPred = 1,   ///< b x b predecessor ids
};

struct TileKey {
  TileKind kind = TileKind::kValue;
  std::uint32_t block_row = 0;
  std::uint32_t block_col = 0;
  bool operator==(const TileKey&) const = default;
};

struct TileKeyHash {
  std::size_t operator()(const TileKey& k) const {
    // Mix the three fields through splitmix64-style finalisation.
    std::uint64_t h = (static_cast<std::uint64_t>(k.block_row) << 33) ^
                      (static_cast<std::uint64_t>(k.block_col) << 1) ^
                      static_cast<std::uint64_t>(k.kind);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

enum class CacheAdmission : std::uint8_t {
  kAlways,       ///< classic CLOCK: admit every miss
  kSecondTouch,  ///< 2Q-style: admit only keys seen in the ghost window
};

struct TileCacheConfig {
  std::size_t budget_bytes = std::size_t{64} << 20;
  CacheAdmission admission = CacheAdmission::kAlways;
  /// kSecondTouch ghost window: how many recently-missed keys to remember.
  std::size_t ghost_capacity = 4096;
};

struct TileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t admitted = 0;  ///< misses whose tile entered the cache
  std::uint64_t bypassed = 0;  ///< misses filtered out by admission
  /// kSecondTouch admissions that came from a ghost-window second touch
  /// (as opposed to kAlways admissions). The admission tuner reads this to
  /// tell "the ghost filter is promoting a real hot set" apart from "every
  /// miss sails straight in" — a plain miss count can't distinguish them.
  std::uint64_t ghost_hits = 0;
  std::uint64_t rejected = 0;  ///< tiles larger than the whole budget
  std::uint64_t bytes_resident = 0;
  std::uint64_t bytes_peak = 0;
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class TileCache {
 public:
  explicit TileCache(TileCacheConfig cfg = {});

  /// Lookup. Counts a hit (and sets the CLOCK reference bit) or a miss.
  /// The returned pointer is stable until the next insert().
  const std::vector<std::uint8_t>* find(const TileKey& key);

  /// Offer the freshly fetched tile after a miss. On admission the bytes
  /// are moved in and a stable pointer to the resident copy is returned;
  /// on bypass/reject `bytes` is left untouched and nullptr is returned
  /// (the caller serves from its own buffer). Evicts under CLOCK until
  /// the tile fits — the byte budget is never exceeded.
  const std::vector<std::uint8_t>* insert(const TileKey& key,
                                          std::vector<std::uint8_t>& bytes);

  const TileCacheStats& stats() const { return stats_; }
  std::size_t budget_bytes() const { return cfg_.budget_bytes; }

 private:
  struct Frame {
    TileKey key;
    std::vector<std::uint8_t> bytes;
    bool referenced = false;
    bool live = false;
  };

  void evict_one();
  bool ghost_second_touch(const TileKey& key);

  TileCacheConfig cfg_;
  TileCacheStats stats_;
  std::vector<Frame> frames_;
  std::vector<std::size_t> free_frames_;
  std::unordered_map<TileKey, std::size_t, TileKeyHash> index_;
  std::size_t hand_ = 0;
  // kSecondTouch ghost list: FIFO of recently missed (or evicted) keys.
  std::unordered_set<TileKey, TileKeyHash> ghost_;
  std::deque<TileKey> ghost_fifo_;
};

}  // namespace parfw::serve
