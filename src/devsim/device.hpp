// Simulated accelerator device — the CUDA runtime substitute (DESIGN.md §1).
//
// Reproduces the CUDA semantics the paper's offload engine (§4.3–4.4)
// depends on:
//   * a device memory pool with a hard capacity — allocating past it
//     throws DeviceOutOfMemory, which is what makes the "beyond GPU
//     memory" regime of Figure 7 real in this reproduction;
//   * asynchronous streams: ops enqueued on one stream execute in order;
//     distinct streams execute concurrently and asynchronously to the
//     host (each stream owns a worker thread, like a HW queue);
//   * events for host↔stream synchronisation;
//   * async H2D/D2H copies and kernel launches.
//
// "Device memory" is ordinary host memory behind an accounting arena: the
// simulation is about *capacity, ordering and overlap*, not about a
// separate address space. An optional TransferModel throttles copies to a
// modelled link bandwidth (sleeping the stream worker), which makes
// compute/transfer overlap observable in wall-clock measurements.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "devsim/stream.hpp"
#include "util/check.hpp"

namespace parfw::dev {

/// Thrown when a device allocation exceeds the configured capacity —
/// the analogue of cudaErrorMemoryAllocation.
class DeviceOutOfMemory : public std::runtime_error {
 public:
  DeviceOutOfMemory(std::size_t requested, std::size_t free_bytes)
      : std::runtime_error("device out of memory: requested " +
                           std::to_string(requested) + " B, free " +
                           std::to_string(free_bytes) + " B") {}
};

/// Link throttling: when bytes_per_sec > 0, each copy occupies its stream
/// for bytes / bytes_per_sec seconds (plus latency), so transfers contend
/// with kernels on the same stream but overlap across streams — the exact
/// behaviour ooGSrGemm's pipeline exploits.
struct TransferModel {
  double bytes_per_sec = 0.0;  ///< 0 = untimed (functional only)
  double latency_sec = 0.0;
};

struct DeviceConfig {
  std::size_t memory_bytes = std::size_t{512} << 20;  ///< default 512 MiB
  TransferModel h2d{};
  TransferModel d2h{};
};

class Device;

/// RAII device allocation of `count` elements of T. Freeing returns the
/// bytes to the device pool. Move-only.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(Device* device, T* data, std::size_t count)
      : device_(device), data_(data), count_(count) {}
  DeviceBuffer(DeviceBuffer&& o) noexcept { *this = std::move(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      device_ = std::exchange(o.device_, nullptr);
      data_ = std::exchange(o.data_, nullptr);
      count_ = std::exchange(o.count_, 0);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer() { release(); }

  T* data() const noexcept { return data_; }
  std::size_t count() const noexcept { return count_; }
  std::size_t bytes() const noexcept { return count_ * sizeof(T); }
  bool valid() const noexcept { return data_ != nullptr; }

 private:
  void release() noexcept;
  Device* device_ = nullptr;
  T* data_ = nullptr;
  std::size_t count_ = 0;
};

/// The simulated device. Thread-safe; streams are created on demand.
class Device {
 public:
  explicit Device(const DeviceConfig& cfg = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Allocate count elements of T from the device pool.
  /// Throws DeviceOutOfMemory when the pool cannot satisfy the request.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t count) {
    void* p = raw_alloc(count * sizeof(T), alignof(T));
    return DeviceBuffer<T>(this, static_cast<T*>(p), count);
  }

  /// Deleter used by StreamPtr: drains the stream, deregisters it from
  /// the device, then destroys it.
  struct StreamDeleter {
    Device* device = nullptr;
    void operator()(Stream* s) const;
  };
  using StreamPtr = std::unique_ptr<Stream, StreamDeleter>;

  /// Create an asynchronous stream (the cudaStreamCreate analogue).
  /// The returned handle must not outlive the device.
  StreamPtr create_stream();

  /// Enqueue an async host→device copy of `bytes` on `s`.
  void memcpy_h2d(Stream& s, void* dst_dev, const void* src_host,
                  std::size_t bytes);
  /// Enqueue an async device→host copy of `bytes` on `s`.
  void memcpy_d2h(Stream& s, void* dst_host, const void* src_dev,
                  std::size_t bytes);
  /// Enqueue a kernel (arbitrary functor executed by the stream worker).
  void launch(Stream& s, std::function<void()> kernel);

  /// Block until every stream created from this device has drained
  /// (cudaDeviceSynchronize analogue).
  void synchronize();

  std::size_t memory_bytes() const { return cfg_.memory_bytes; }
  std::size_t bytes_in_use() const { return bytes_in_use_.load(); }
  std::size_t bytes_free() const { return cfg_.memory_bytes - bytes_in_use(); }

 private:
  template <typename T>
  friend class DeviceBuffer;

  void* raw_alloc(std::size_t bytes, std::size_t align);
  void raw_free(void* p, std::size_t bytes) noexcept;
  static void throttle(const TransferModel& m, std::size_t bytes);

  DeviceConfig cfg_;
  std::atomic<std::size_t> bytes_in_use_{0};

  std::mutex streams_mu_;
  std::vector<Stream*> streams_;  // registry for synchronize(); not owning
};

template <typename T>
void DeviceBuffer<T>::release() noexcept {
  if (device_ != nullptr && data_ != nullptr)
    device_->raw_free(data_, count_ * sizeof(T));
  device_ = nullptr;
  data_ = nullptr;
  count_ = 0;
}

}  // namespace parfw::dev
