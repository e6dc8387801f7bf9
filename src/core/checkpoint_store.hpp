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
//     examples honour PARFW_CKPT_DIR to select it. Ranged reads go
//     through a small cache of open read-only descriptors with pread;
//     put and erase drop the key's descriptor, so reads through this
//     store see its own writes. A descriptor opened before another
//     store or process replaced the file keeps reading the blob it
//     opened.
//
// Stores must be thread-safe: mpisim ranks are threads and all snapshot
// concurrently at a checkpoint cut.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace parfw {

/// One contiguous slice of a blob, for gathered partial reads.
struct ByteRange {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

namespace detail {
/// Throw check_error unless `r` lies inside a blob of `size` bytes. Written
/// so that no hostile offset or length can wrap the sum past the test.
inline void check_range(const ByteRange& r, std::uint64_t size,
                        const std::string& key) {
  PARFW_CHECK_MSG(r.offset <= size && r.length <= size - r.offset,
                  "range [" << r.offset << ", +" << r.length
                            << ") past end of blob '" << key << "' (" << size
                            << " bytes)");
}
}  // namespace detail

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
      detail::check_range(r, blob->size(), key);
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
      detail::check_range(r, blob.size(), key);
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
  /// Read descriptors kept open at once, least recently used closed
  /// first. Serving reads one blob per rank of the publishing grid.
  static constexpr std::size_t kMaxOpenBlobs = 16;

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
    forget(key);
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
    forget(key);
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
    // The tile-fetch fast path: a cached descriptor and one pread per
    // range (a checkpoint v3 tile is one range).
    const std::shared_ptr<const ReadHandle> h = handle(key);
    if (h == nullptr) return false;
    for (const ByteRange& r : ranges) {
      detail::check_range(r, h->size, key);
      for (std::uint64_t done = 0; done < r.length;) {
        const ssize_t got = ::pread(h->fd, out + done,
                                    static_cast<std::size_t>(r.length - done),
                                    static_cast<off_t>(r.offset + done));
        if (got < 0 && errno == EINTR) continue;
        PARFW_CHECK_MSG(got > 0, "ranged checkpoint read failed: " << key);
        done += static_cast<std::uint64_t>(got);
      }
      out += r.length;
    }
    return true;
  }

 private:
  /// A read-only descriptor of one blob file and its size at open. Shared:
  /// an evicted or forgotten handle closes when its last reader drops it.
  struct ReadHandle {
    int fd = -1;
    std::uint64_t size = 0;
    ReadHandle() = default;
    ReadHandle(const ReadHandle&) = delete;
    ReadHandle& operator=(const ReadHandle&) = delete;
    ~ReadHandle() {
      if (fd >= 0) ::close(fd);
    }
  };

  std::filesystem::path path_of(const std::string& key) const {
    // Keys are generated by this library ([A-Za-z0-9._-]); refuse anything
    // that could escape the directory.
    PARFW_CHECK_MSG(key.find('/') == std::string::npos &&
                        key.find("..") == std::string::npos && !key.empty(),
                    "bad checkpoint key: " << key);
    return dir_ / (key + ".ckpt");
  }

  /// The cached descriptor of `key`'s blob, opened on first use; null iff
  /// the blob does not exist. Opening under the lock orders it against
  /// forget(): a put's rename either precedes the open or drops its handle.
  std::shared_ptr<const ReadHandle> handle(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        std::find_if(open_.begin(), open_.end(),
                     [&key](const auto& e) { return e.first == key; });
    if (it != open_.end()) {
      std::rotate(it, it + 1, open_.end());  // most recently used last
      return open_.back().second;
    }
    const auto path = path_of(key);
    auto h = std::make_shared<ReadHandle>();
    h->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (h->fd < 0) {
      const int err = errno;
      PARFW_CHECK_MSG(err == ENOENT,
                      "cannot open " << path << ": " << std::strerror(err));
      return nullptr;
    }
    struct stat st {};
    PARFW_CHECK_MSG(::fstat(h->fd, &st) == 0, "cannot stat " << path);
    h->size = static_cast<std::uint64_t>(st.st_size);
    if (open_.size() == kMaxOpenBlobs) open_.erase(open_.begin());
    open_.emplace_back(key, std::move(h));
    return open_.back().second;
  }
  /// Drop `key`'s cached descriptor (its blob was replaced or removed).
  void forget(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(open_, [&key](const auto& e) { return e.first == key; });
  }

  std::filesystem::path dir_;
  mutable std::mutex mu_;
  mutable std::vector<std::pair<std::string, std::shared_ptr<const ReadHandle>>>
      open_;  ///< guarded by mu_; least recently used first
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
