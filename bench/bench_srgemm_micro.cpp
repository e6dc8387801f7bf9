// SRGEMM micro-benchmark (paper §2.6 / §4.1 claim: the SRGEMM kernel
// reaches 6.8 TF/s on a V100, ~87% of the no-FMA peak).
//
// Here the kernel is the CPU substitute, so the comparable claim is each
// rung of the kernel hierarchy's fraction of what this host can do:
//   naive → tiled (scalar) → SIMD (explicit vectors)
// Every rung runs the one cache-derived tile geometry the solvers run
// (srgemm::detail::geometry(), DESIGN.md §4.1a); the explicit rungs call
// the kernel body directly, "Auto" goes through multiply() the way every
// caller does, so on a SIMD build BM_SrgemmAuto and BM_SrgemmSimd measure
// the same kernel. The paper-scale V100 number is reproduced by the
// performance model in the figure benches.
//
// Baseline numbers live in BENCH_srgemm.json (regenerate with
//   bench_srgemm_micro --benchmark_out=BENCH_srgemm.json
//                      --benchmark_out_format=json).
#include <benchmark/benchmark.h>

#include <iostream>

#include "graph/graph.hpp"
#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/export.hpp"

namespace {

using S = parfw::MinPlus<float>;

parfw::Matrix<float> make(std::size_t r, std::size_t c, std::uint64_t seed) {
  parfw::DenseEntryGen<float> gen(seed, 1.0, 1.0f, 100.0f);
  parfw::Matrix<float> m(r, c);
  gen.fill_block(0, 0, m.view());
  return m;
}

using parfw::srgemm::Kernel;

/// One product with an explicit kernel body (kAuto = the multiply() front
/// door), packing its operands the way multiply() does.
void product(Kernel k, parfw::MatrixView<const float> A,
             parfw::MatrixView<const float> B, parfw::MatrixView<float> C) {
  if (k == Kernel::kAuto)
    parfw::srgemm::multiply<S>(A, B, C);
  else
    parfw::srgemm::detail::run_slice<S>(A, B, C, k, /*prepacked=*/false);
}

void run_square(benchmark::State& state, Kernel k) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto A = make(n, n, 1), B = make(n, n, 2), C = make(n, n, 3);
  for (auto _ : state) {
    product(k, A.view(), B.view(), C.view());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

void BM_SrgemmNaive(benchmark::State& state) {
  run_square(state, Kernel::kNaive);
}
BENCHMARK(BM_SrgemmNaive)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SrgemmTiledScalar(benchmark::State& state) {
  run_square(state, Kernel::kTiled);
}
BENCHMARK(BM_SrgemmTiledScalar)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SrgemmSimd(benchmark::State& state) {
  run_square(state, Kernel::kSimd);
}
BENCHMARK(BM_SrgemmSimd)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// What every caller gets: multiply()'s kAuto dispatch.
void BM_SrgemmAuto(benchmark::State& state) {
  run_square(state, Kernel::kAuto);
}
BENCHMARK(BM_SrgemmAuto)->Arg(512)->Unit(benchmark::kMillisecond);

/// Dense, caller-owned operands through the prepacked entry point (no
/// operand copies at all — blocked FW's quadrant-update fast path).
void BM_SrgemmSimdPrepacked(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto A = make(n, n, 1), B = make(n, n, 2), C = make(n, n, 3);
  for (auto _ : state) {
    parfw::srgemm::multiply_prepacked<S>(A.view(), B.view(), C.view());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SrgemmSimdPrepacked)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void run_panel(benchmark::State& state, Kernel k) {
  // The blocked-FW hot shape: (m, n, k) = (local, local, b).
  const std::size_t m = 1024, kk = static_cast<std::size_t>(state.range(0));
  auto A = make(m, kk, 1), B = make(kk, m, 2), C = make(m, m, 3);
  for (auto _ : state) {
    product(k, A.view(), B.view(), C.view());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(m, m, kk) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

void BM_SrgemmPanelShapeScalar(benchmark::State& state) {
  run_panel(state, Kernel::kTiled);
}
BENCHMARK(BM_SrgemmPanelShapeScalar)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_SrgemmPanelShapeSimd(benchmark::State& state) {
  run_panel(state, Kernel::kSimd);
}
BENCHMARK(BM_SrgemmPanelShapeSimd)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// PARFW_METRICS=json|prom|table dumps the ambient kernel-dispatch series
// (calls, flops, GF/s per kernel×micro-shape) after the run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  parfw::telemetry::dump_env(std::cerr);
  return 0;
}
