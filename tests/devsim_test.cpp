// Simulated-device tests: memory capacity, stream ordering, events,
// cross-stream concurrency, copies, throttling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "devsim/device.hpp"
#include "util/timer.hpp"

namespace parfw::dev {
namespace {

TEST(DeviceMemory, CapacityEnforced) {
  DeviceConfig cfg;
  cfg.memory_bytes = 1024;
  Device d(cfg);
  auto a = d.alloc<float>(128);  // 512 B
  EXPECT_EQ(d.bytes_in_use(), 512u);
  auto b = d.alloc<float>(128);  // another 512 B, exactly full
  EXPECT_EQ(d.bytes_free(), 0u);
  EXPECT_THROW(d.alloc<float>(1), DeviceOutOfMemory);
}

TEST(DeviceMemory, FreeingReturnsCapacity) {
  DeviceConfig cfg;
  cfg.memory_bytes = 1024;
  Device d(cfg);
  {
    auto a = d.alloc<double>(64);  // 512 B
    EXPECT_EQ(d.bytes_in_use(), 512u);
  }
  EXPECT_EQ(d.bytes_in_use(), 0u);
  auto b = d.alloc<double>(128);  // now fits
  EXPECT_TRUE(b.valid());
}

TEST(DeviceBuffer, MoveSemantics) {
  Device d;
  auto a = d.alloc<int>(10);
  int* p = a.data();
  auto b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_FALSE(a.valid());
}

TEST(Stream, OpsExecuteInOrder) {
  Device d;
  auto s = d.create_stream();
  std::vector<int> order;
  for (int i = 0; i < 50; ++i)
    d.launch(*s, [&order, i] { order.push_back(i); });
  s->synchronize();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Stream, AsyncWithRespectToHost) {
  Device d;
  auto s = d.create_stream();
  std::atomic<bool> release{false};
  std::atomic<bool> ran{false};
  d.launch(*s, [&] {
    while (!release.load()) std::this_thread::yield();
    ran.store(true);
  });
  // The launch must return while the kernel is still blocked.
  EXPECT_FALSE(ran.load());
  release.store(true);
  s->synchronize();
  EXPECT_TRUE(ran.load());
}

TEST(Stream, EventsSignalAtRecordPoint) {
  Device d;
  auto s = d.create_stream();
  std::atomic<bool> release{false};
  d.launch(*s, [&] {
    while (!release.load()) std::this_thread::yield();
  });
  Event e = s->record();
  EXPECT_FALSE(e.query());
  release.store(true);
  e.wait();
  EXPECT_TRUE(e.query());
}

TEST(Stream, DistinctStreamsRunConcurrently) {
  Device d;
  auto s1 = d.create_stream();
  auto s2 = d.create_stream();
  std::atomic<bool> s1_entered{false};
  std::atomic<bool> s2_done{false};
  d.launch(*s1, [&] {
    s1_entered.store(true);
    while (!s2_done.load()) std::this_thread::yield();  // waits on stream 2
  });
  d.launch(*s2, [&] {
    while (!s1_entered.load()) std::this_thread::yield();
    s2_done.store(true);
  });
  d.synchronize();  // would deadlock if streams shared a worker
  SUCCEED();
}

TEST(Transfers, CopyAndAccounting) {
  Device d;
  auto s = d.create_stream();
  auto dev = d.alloc<float>(256);
  std::vector<float> host(256);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = static_cast<float>(i);
  d.memcpy_h2d(*s, dev.data(), host.data(), 256 * sizeof(float));
  std::vector<float> back(256, -1.0f);
  d.memcpy_d2h(*s, back.data(), dev.data(), 256 * sizeof(float));
  s->synchronize();
  EXPECT_EQ(back, host);
  // Copies stage through the allocation; they claim no device memory.
  EXPECT_EQ(d.bytes_in_use(), 256 * sizeof(float));
}

TEST(Transfers, ThrottledCopyTakesModelledTime) {
  DeviceConfig cfg;
  cfg.h2d.bytes_per_sec = 1e6;  // 1 MB/s
  Device d(cfg);
  auto s = d.create_stream();
  auto dev = d.alloc<char>(50000);
  std::vector<char> host(50000, 7);
  parfw::Timer t;
  d.memcpy_h2d(*s, dev.data(), host.data(), host.size());
  s->synchronize();
  EXPECT_GE(t.seconds(), 0.045);  // modelled 50 ms
}

TEST(Device, SynchronizeDrainsAllStreams) {
  Device d;
  auto s1 = d.create_stream();
  auto s2 = d.create_stream();
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    d.launch(*s1, [&] { done.fetch_add(1); });
    d.launch(*s2, [&] { done.fetch_add(1); });
  }
  d.synchronize();
  EXPECT_EQ(done.load(), 40);
}

}  // namespace
}  // namespace parfw::dev
