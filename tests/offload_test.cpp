// Offload engine tests: ooGSrGemm correctness vs in-core SRGEMM across
// chunk geometries and stream counts, transfer-volume accounting against
// the §4.5 cost model, and the kOffload interpreter closing a matrix
// larger than device memory.
#include <gtest/gtest.h>

#include <tuple>

#include "core/floyd_warshall.hpp"
#include "dist/driver.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "offload/oog_srgemm.hpp"
#include "semiring/semiring.hpp"

namespace parfw {
namespace {

using S = MinPlus<float>;

Matrix<float> random_panel(std::size_t r, std::size_t c, std::uint64_t seed) {
  DenseEntryGen<float> gen(seed, 0.95, 1.0f, 60.0f, /*integral=*/true);
  Matrix<float> m(r, c);
  gen.fill_block(0, 0, m.view());
  return m;
}

class OogGeometry : public ::testing::TestWithParam<
                        std::tuple<int, int, int, int, int>> {};
// (m, n, k, chunk, streams)

TEST_P(OogGeometry, MatchesInCoreSrgemm) {
  const auto [m, n, k, chunk, streams] = GetParam();
  auto A = random_panel(m, k, 1);
  auto B = random_panel(k, n, 2);
  auto C0 = random_panel(m, n, 3);
  auto C1 = C0.clone();
  srgemm::multiply<S>(A.view(), B.view(), C0.view());

  dev::Device device;
  offload::OogConfig cfg;
  cfg.mx = static_cast<std::size_t>(chunk);
  cfg.nx = static_cast<std::size_t>(chunk);
  cfg.num_streams = static_cast<std::size_t>(streams);
  const auto stats =
      offload::oog_srgemm<S>(device, A.view(), B.view(), C1.view(), cfg);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
  // §4.5 volume terms: uploads (m+n)k, downloads m·n.
  EXPECT_EQ(stats.elems_h2d, static_cast<std::size_t>(m + n) *
                                 static_cast<std::size_t>(k));
  EXPECT_EQ(stats.elems_d2h,
            static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, OogGeometry,
    ::testing::Values(std::tuple{64, 64, 16, 32, 1},
                      std::tuple{64, 64, 16, 32, 2},
                      std::tuple{64, 64, 16, 32, 3},
                      std::tuple{100, 80, 24, 32, 4},
                      std::tuple{97, 61, 13, 30, 3},   // ragged chunks
                      std::tuple{128, 128, 32, 128, 3},  // single chunk
                      std::tuple{40, 200, 8, 64, 5},
                      std::tuple{256, 256, 64, 64, 3}));

TEST(OogSrgemm, PanelsUploadedExactlyOnce) {
  // Panel caching (§4.4): the oog.bytes_h2d the pipeline records must
  // equal the logical volume — uploading a panel twice would double it.
  const std::size_t m = 96, n = 96, k = 16;
  auto A = random_panel(m, k, 7);
  auto B = random_panel(k, n, 8);
  auto C = random_panel(m, n, 9);
  dev::Device device;
  offload::OogConfig cfg;
  cfg.mx = cfg.nx = 32;  // 3x3 chunk grid: each panel reused 3 times
  cfg.num_streams = 3;
  telemetry::Registry reg;
  cfg.metrics = &reg;
  offload::oog_srgemm<S>(device, A.view(), B.view(), C.view(), cfg);
  device.synchronize();
  EXPECT_EQ(reg.counter("oog.bytes_h2d").value(), (m + n) * k * sizeof(float));
}

TEST(OogSrgemm, RespectsDeviceCapacity) {
  // Working set: dA(m·k) + dB(k·n) + s·mx·nx floats must fit; beyond that
  // the allocation throws.
  const std::size_t m = 64, n = 64, k = 16;
  auto A = random_panel(m, k, 11);
  auto B = random_panel(k, n, 12);
  auto C = random_panel(m, n, 13);
  offload::OogConfig cfg;
  cfg.mx = cfg.nx = 32;
  cfg.num_streams = 2;
  const std::size_t need =
      (m * k + k * n + 2 * cfg.mx * cfg.nx) * sizeof(float);
  {
    dev::DeviceConfig dc;
    dc.memory_bytes = need;
    dev::Device device(dc);
    EXPECT_NO_THROW(
        offload::oog_srgemm<S>(device, A.view(), B.view(), C.view(), cfg));
    device.synchronize();
  }
  {
    dev::DeviceConfig dc;
    dc.memory_bytes = need - 64;
    dev::Device device(dc);
    auto C2 = random_panel(m, n, 13);
    EXPECT_THROW(
        offload::oog_srgemm<S>(device, A.view(), B.view(), C2.view(), cfg),
        dev::DeviceOutOfMemory);
    device.synchronize();
  }
}

TEST(OogSrgemm, WorksOnSubViews) {
  // The offload FW passes strided sub-views of the big host matrix.
  auto big = random_panel(120, 120, 21);
  auto expected = big.clone();
  auto A = big.sub(0, 0, 80, 16);
  auto B = big.sub(0, 0, 16, 70);
  srgemm::multiply<S>(expected.sub(0, 0, 80, 16), expected.sub(0, 0, 16, 70),
                      expected.sub(30, 30, 80, 70));
  dev::Device device;
  offload::OogConfig cfg;
  cfg.mx = cfg.nx = 32;
  offload::oog_srgemm<S>(device, A, B, big.sub(30, 30, 80, 70), cfg);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(expected.view(), big.view()), 0.0);
}

TEST(OffloadFw, HostMatrixLargerThanDeviceMemory) {
  // The headline property: close a matrix whose footprint exceeds device
  // capacity. The kOffload variant on a 1x1 grid keeps the whole 64 KiB
  // host matrix on one rank whose device holds only 40 KiB; dev::Device
  // throws on any allocation past capacity, so a bitwise match proves the
  // ooGSrGemm pipeline streamed it through.
  const std::size_t n = 128, b = 16;
  DenseEntryGen<float> gen(903, 1.0, 1.0f, 25.0f, /*integral=*/true);
  auto expected = gen.full(static_cast<vertex_t>(n));
  floyd_warshall<S>(expected.view());
  dist::DistFwOptions opt;
  opt.variant = dist::Variant::kOffload;
  opt.block_size = b;
  opt.device_memory_bytes = 40 << 10;
  opt.oog.mx = opt.oog.nx = 16;
  opt.oog.num_streams = 2;
  ASSERT_LT(opt.device_memory_bytes, n * n * sizeof(float));
  const auto r = dist::run_parallel_fw<S>(
      n, gen, dist::GridSpec::row_major(1, 1), /*ranks_per_node=*/1, opt);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), r.dist.view()), 0.0);
}

}  // namespace
}  // namespace parfw
