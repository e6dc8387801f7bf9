#include "devsim/device.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace parfw::dev {

Device::Device(const DeviceConfig& cfg) : cfg_(cfg) {}

Device::~Device() {
  // Streams are owned by callers; by the time the device dies they must be
  // gone. This mirrors CUDA's "destroy streams before the context" rule.
  std::lock_guard<std::mutex> lock(streams_mu_);
  PARFW_CHECK_MSG(streams_.empty(),
                  "device destroyed with " << streams_.size()
                                           << " live stream(s)");
}

void* Device::raw_alloc(std::size_t bytes, std::size_t align) {
  // Serialise the capacity check against concurrent allocators.
  std::size_t used = bytes_in_use_.load();
  for (;;) {
    if (used + bytes > cfg_.memory_bytes)
      throw DeviceOutOfMemory(bytes, cfg_.memory_bytes - used);
    if (bytes_in_use_.compare_exchange_weak(used, used + bytes)) break;
  }
  const std::size_t a = std::max<std::size_t>(align, 64);
  const std::size_t rounded = (bytes + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) {
    bytes_in_use_.fetch_sub(bytes);
    throw std::bad_alloc();
  }
  return p;
}

void Device::raw_free(void* p, std::size_t bytes) noexcept {
  std::free(p);
  bytes_in_use_.fetch_sub(bytes);
}

void Device::StreamDeleter::operator()(Stream* s) const {
  if (s == nullptr) return;
  s->synchronize();
  if (device != nullptr) {
    std::lock_guard<std::mutex> lock(device->streams_mu_);
    auto& v = device->streams_;
    v.erase(std::remove(v.begin(), v.end(), s), v.end());
  }
  delete s;
}

Device::StreamPtr Device::create_stream() {
  auto* s = new Stream();
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    streams_.push_back(s);
  }
  return StreamPtr(s, StreamDeleter{this});
}

void Device::throttle(const TransferModel& m, std::size_t bytes) {
  if (m.bytes_per_sec <= 0.0 && m.latency_sec <= 0.0) return;
  double secs = m.latency_sec;
  if (m.bytes_per_sec > 0.0)
    secs += static_cast<double>(bytes) / m.bytes_per_sec;
  if (secs > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(secs));
}

void Device::memcpy_h2d(Stream& s, void* dst_dev, const void* src_host,
                        std::size_t bytes) {
  const TransferModel model = cfg_.h2d;
  s.enqueue([=] {
    throttle(model, bytes);
    std::memcpy(dst_dev, src_host, bytes);
  });
}

void Device::memcpy_d2h(Stream& s, void* dst_host, const void* src_dev,
                        std::size_t bytes) {
  const TransferModel model = cfg_.d2h;
  s.enqueue([=] {
    throttle(model, bytes);
    std::memcpy(dst_host, src_dev, bytes);
  });
}

void Device::launch(Stream& s, std::function<void()> kernel) {
  s.enqueue(std::move(kernel));
}

void Device::synchronize() {
  std::vector<Stream*> snapshot;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    snapshot = streams_;
  }
  for (Stream* s : snapshot) s->synchronize();
}

}  // namespace parfw::dev
