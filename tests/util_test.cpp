// Unit tests for util: thread pool, aligned buffers, matrix views, tables,
// CRC32C.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace parfw {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadsExecutesInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  bool ran = false;
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForRethrowsOnlyAfterEveryChunkFinished) {
  // Chunk 0 throws while chunks 1..3 are still running. The exception must
  // reach the caller, and not before the other chunks are done with `fn`.
  ThreadPool pool(4);
  std::atomic<int> started{0}, finished{0};
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t i) {
                                   if (i == 0) {
                                     while (started.load() < 3)
                                       std::this_thread::yield();
                                     throw std::runtime_error("chunk 0");
                                   }
                                   started.fetch_add(1);
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(50));
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

/// Counts what a ThreadPool reports through the PoolObserver seam.
class CountingObserver final : public PoolObserver {
 public:
  void on_queue_depth(std::size_t) override { depth_reports.fetch_add(1); }
  void on_task(double wait_seconds, double run_seconds) override {
    tasks.fetch_add(1);
    if (wait_seconds != 0.0) nonzero_waits.fetch_add(1);
    if (wait_seconds < 0.0 || run_seconds < 0.0) negative.fetch_add(1);
  }
  std::atomic<int> depth_reports{0}, tasks{0}, nonzero_waits{0}, negative{0};
};

TEST(ThreadPool, ObserverSeesEveryTask) {
  constexpr int kTasks = 64;
  CountingObserver workers;
  {
    // The pool is joined before the counts are read: a task's future
    // resolves before its trailing on_task report.
    ThreadPool pool(4);
    pool.set_observer(&workers);
    std::vector<std::future<void>> futs;
    for (int t = 0; t < kTasks; ++t) futs.push_back(pool.submit([] {}));
    for (auto& f : futs) f.get();
  }
  EXPECT_EQ(workers.tasks.load(), kTasks);
  EXPECT_EQ(workers.depth_reports.load(), 2 * kTasks);  // push + pop
  EXPECT_EQ(workers.negative.load(), 0);

  // A 0-thread pool runs inline: each report lands before submit returns,
  // nothing is queued, so there are no depth reports and no waits.
  CountingObserver inline_obs;
  ThreadPool pool(0);
  pool.set_observer(&inline_obs);
  auto f = pool.submit([] {});
  EXPECT_EQ(inline_obs.tasks.load(), 1);
  f.get();
  pool.submit([] {}).get();
  EXPECT_EQ(inline_obs.tasks.load(), 2);
  EXPECT_EQ(inline_obs.depth_reports.load(), 0);
  EXPECT_EQ(inline_obs.nonzero_waits.load(), 0);

  pool.set_observer(nullptr);
  EXPECT_EQ(pool.observer(), nullptr);
  pool.submit([] {}).get();
  EXPECT_EQ(inline_obs.tasks.load(), 2);
}

TEST(AlignedBuffer, SixtyFourByteAlignment) {
  for (std::size_t n : {1, 7, 64, 1000}) {
    AlignedBuffer<float> buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    EXPECT_EQ(buf.size(), n);
  }
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[3] = 42;
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b[3], 42);
  EXPECT_TRUE(a.empty());
}

TEST(Matrix, SubViewAddressesParentStorage) {
  Matrix<int> m(6, 8, 0);
  auto sub = m.sub(2, 3, 2, 2);
  sub(0, 0) = 7;
  sub(1, 1) = 9;
  EXPECT_EQ(m(2, 3), 7);
  EXPECT_EQ(m(3, 4), 9);
  EXPECT_EQ(sub.ld(), 8u);
}

TEST(Matrix, CopyFromRespectsLeadingDimension) {
  Matrix<int> src(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) src(i, j) = static_cast<int>(10 * i + j);
  Matrix<int> dst(8, 8, -1);
  dst.sub(2, 2, 4, 4).copy_from(src.view());
  EXPECT_EQ(dst(2, 2), 0);
  EXPECT_EQ(dst(5, 5), 33);
  EXPECT_EQ(dst(0, 0), -1);  // outside the target region untouched
}

TEST(Matrix, CloneIsDeep) {
  Matrix<float> a(3, 3, 1.0f);
  Matrix<float> b = a.clone();
  b(1, 1) = 99.0f;
  EXPECT_EQ(a(1, 1), 1.0f);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix<double> a(2, 2, 1.0);
  Matrix<double> b = a.clone();
  b(1, 0) = 4.5;
  EXPECT_DOUBLE_EQ(max_abs_diff<double>(a.view(), b.view()), 3.5);
}

TEST(Check, ThrowsCheckError) {
  EXPECT_THROW(PARFW_CHECK(1 == 2), check_error);
  EXPECT_NO_THROW(PARFW_CHECK(1 == 1));
}

TEST(Crc32c, MatchesRfc3720Vectors) {
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(digits.data()),
                    digits.size()}),
            0xE3069283u);
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const std::vector<std::uint8_t> ones(32, 0xff);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32c, ChainsAndBothPathsAgreeAtEveryLengthAndOffset) {
  // The compiled hardware path (SSE4.2, with VPCLMULQDQ folding of whole
  // 256-byte blocks where the target has it) and the slice-by-8 fallback
  // must give the same value for every length 0..257 at every start
  // offset 0..7 (word loop, byte tail, misaligned loads) and around
  // multiples of 256 up to a 32 KiB tile, and splitting the input must
  // not change the result.
  std::vector<std::size_t> lengths(258);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  for (std::size_t edge : {512, 768, 4096, 16384, 32768})
    for (std::size_t len : {edge - 1, edge, edge + 1, edge + 9})
      lengths.push_back(len);
  std::vector<std::uint8_t> buf(8 + 32768 + 9);
  Rng rng(0xc5c);
  for (auto& v : buf) v = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len : lengths) {
      const std::uint8_t* p = buf.data() + off;
      const std::uint32_t want = detail::crc32c_portable(p, len, 0);
      ASSERT_EQ(crc32c({p, len}), want) << off << "+" << len;
      const std::size_t cut = len / 3;
      ASSERT_EQ(crc32c({p + cut, len - cut}, crc32c({p, cut})), want)
          << off << "+" << len;
    }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng a = Rng::split(1, 0);
  Rng b = Rng::split(1, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer_name", "2.5"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.str();
  EXPECT_NE(s.find("longer_name"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), check_error);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace parfw
