// CheckpointStore — the sink/source abstraction checkpoints flow through.
//
// A store maps string keys to opaque blobs. The resilience layer writes
// one blob per rank per checkpoint cut plus a small commit record (see
// dist/checkpoint.hpp; a single-node run is a 1x1 grid, one rank).
// Two implementations:
//
//   * MemoryCheckpointStore — thread-safe in-process map. Used by tests
//     and by the supervision loop's default "survive an injected crash
//     within one process" mode.
//   * FileCheckpointStore  — one file per key under a directory
//     (tmp-write + atomic rename), the durable choice for real runs;
//     examples honour PARFW_CKPT_DIR to select it.
//
// Stores must be thread-safe: mpisim ranks are threads and all snapshot
// concurrently at a checkpoint cut.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace parfw {

/// One contiguous slice of a blob, for gathered partial reads.
struct ByteRange {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;
  /// Store `blob` under `key`, replacing any previous value atomically
  /// (readers see the old blob or the new one, never a torn write).
  virtual void put(const std::string& key,
                   std::span<const std::uint8_t> blob) = 0;
  /// Fetch the blob stored under `key`; nullopt if absent.
  virtual std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) const = 0;
  virtual void erase(const std::string& key) = 0;
  /// All present keys, sorted (tests + garbage collection).
  virtual std::vector<std::string> keys() const = 0;

  /// Gathered ranged read: copy ranges[0], ranges[1], ... of the blob
  /// under `key` into `out`, back to back. Returns false iff the key is
  /// absent; a range past the end of the blob throws (that is a corrupt
  /// manifest, not a missing checkpoint). The base implementation fetches
  /// the whole blob; concrete stores override with positioned reads so the
  /// serving tier (src/serve/) can pull single tiles out of multi-MB rank
  /// blobs without materialising them.
  virtual bool get_ranges(const std::string& key,
                          std::span<const ByteRange> ranges,
                          std::uint8_t* out) const {
    auto blob = get(key);
    if (!blob.has_value()) return false;
    for (const ByteRange& r : ranges) {
      PARFW_CHECK_MSG(r.offset + r.length <= blob->size(),
                      "range [" << r.offset << ", +" << r.length
                                << ") past end of blob '" << key << "' ("
                                << blob->size() << " bytes)");
      std::memcpy(out, blob->data() + r.offset,
                  static_cast<std::size_t>(r.length));
      out += r.length;
    }
    return true;
  }
};

class MemoryCheckpointStore final : public CheckpointStore {
 public:
  void put(const std::string& key,
           std::span<const std::uint8_t> blob) override {
    std::lock_guard<std::mutex> lock(mu_);
    blobs_[key].assign(blob.begin(), blob.end());
  }
  std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blobs_.find(key);
    if (it == blobs_.end()) return std::nullopt;
    return it->second;
  }
  void erase(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    blobs_.erase(key);
  }
  std::vector<std::string> keys() const override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(blobs_.size());
    for (const auto& [k, v] : blobs_) out.push_back(k);
    return out;  // std::map iterates sorted
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    blobs_.clear();
  }
  bool get_ranges(const std::string& key, std::span<const ByteRange> ranges,
                  std::uint8_t* out) const override {
    // Copy the requested slices under the lock — no whole-blob copy.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blobs_.find(key);
    if (it == blobs_.end()) return false;
    const auto& blob = it->second;
    for (const ByteRange& r : ranges) {
      PARFW_CHECK_MSG(r.offset + r.length <= blob.size(),
                      "range [" << r.offset << ", +" << r.length
                                << ") past end of blob '" << key << "' ("
                                << blob.size() << " bytes)");
      std::memcpy(out, blob.data() + r.offset,
                  static_cast<std::size_t>(r.length));
      out += r.length;
    }
    return true;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::uint8_t>> blobs_;
};

class FileCheckpointStore final : public CheckpointStore {
 public:
  explicit FileCheckpointStore(std::filesystem::path dir)
      : dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
  }
  const std::filesystem::path& dir() const { return dir_; }

  void put(const std::string& key,
           std::span<const std::uint8_t> blob) override {
    const auto path = path_of(key);
    const auto tmp = path.string() + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      PARFW_CHECK_MSG(out.good(), "cannot open " << tmp);
      out.write(reinterpret_cast<const char*>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
      PARFW_CHECK_MSG(out.good(), "checkpoint write failed: " << tmp);
    }
    std::filesystem::rename(tmp, path);  // atomic replace
  }
  std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) const override {
    std::ifstream in(path_of(key), std::ios::binary | std::ios::ate);
    if (!in.good()) return std::nullopt;
    const auto size = static_cast<std::size_t>(in.tellg());
    std::vector<std::uint8_t> blob(size);
    in.seekg(0);
    in.read(reinterpret_cast<char*>(blob.data()),
            static_cast<std::streamsize>(size));
    PARFW_CHECK_MSG(in.good(), "checkpoint read failed: " << key);
    return blob;
  }
  void erase(const std::string& key) override {
    std::error_code ec;
    std::filesystem::remove(path_of(key), ec);
  }
  std::vector<std::string> keys() const override {
    std::vector<std::string> out;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      if (!e.is_regular_file()) continue;
      const auto name = e.path().filename().string();
      if (name.ends_with(".ckpt")) out.push_back(name.substr(0, name.size() - 5));
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  bool get_ranges(const std::string& key, std::span<const ByteRange> ranges,
                  std::uint8_t* out) const override {
    // One open, one seek+read per range — the tile-fetch fast path.
    std::ifstream in(path_of(key), std::ios::binary | std::ios::ate);
    if (!in.good()) return false;
    const auto size = static_cast<std::uint64_t>(in.tellg());
    for (const ByteRange& r : ranges) {
      PARFW_CHECK_MSG(r.offset + r.length <= size,
                      "range [" << r.offset << ", +" << r.length
                                << ") past end of blob '" << key << "' ("
                                << size << " bytes)");
      in.seekg(static_cast<std::streamoff>(r.offset));
      in.read(reinterpret_cast<char*>(out),
              static_cast<std::streamsize>(r.length));
      PARFW_CHECK_MSG(in.good(), "ranged checkpoint read failed: " << key);
      out += r.length;
    }
    return true;
  }

 private:
  std::filesystem::path path_of(const std::string& key) const {
    // Keys are generated by this library ([A-Za-z0-9._-]); refuse anything
    // that could escape the directory.
    PARFW_CHECK_MSG(key.find('/') == std::string::npos &&
                        key.find("..") == std::string::npos && !key.empty(),
                    "bad checkpoint key: " << key);
    return dir_ / (key + ".ckpt");
  }

  std::filesystem::path dir_;
};

/// Resilience knobs carried by the solver options (one struct so the
/// front door can thread them through to both the checkpoint layer and
/// the runtime's reliability envelope).
struct ResilienceOptions {
  /// Snapshot every N pivot iterations at coordinated cuts (0 = never).
  std::size_t checkpoint_every = 0;
  /// Where snapshots go / come from. nullptr disables checkpointing AND
  /// restart (the supervision loop then restarts failed runs from
  /// scratch). Not owned; must outlive the run.
  CheckpointStore* store = nullptr;
  /// Per-message retransmission budget of the runtime envelope.
  int max_retries = 6;
  /// Initial retransmission timeout, seconds (exponential backoff, 8x cap).
  double send_timeout = 0.01;
  /// Supervision loop: give up after this many world restarts.
  int max_restarts = 3;
};

}  // namespace parfw
