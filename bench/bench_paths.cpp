// Path-tracking benchmarks: the argmin-SIMD fused kernel vs the scalar
// reference and vs the values kernel, the end-to-end overhead a paths run
// adds to a value run of the distributed solver, single-node paths solves
// on the pool next to their values-only twins, and the witness pass alone
// on both of its bodies.
//
// Acceptance claims this binary measures:
//   * srgemm::multiply_with_pred (SIMD argmin tracking) is >= 5x the
//     scalar srgemm::multiply_with_pred_reference oracle at n = 512 —
//     check.sh --paths enforces the ratio from the emitted JSON;
//   * at the 2x2 outer-update shape, the argmin kernel (BM_PredOuter)
//     holds at least 0.30 of the values kernel's rate (BM_ValueOuter) —
//     also enforced by check.sh --paths;
//   * the paths overhead of the distributed solve is the witness pass over
//     the gathered matrix (the schedule is the values schedule);
//   * BM_ApspPathsParallel / BM_ApspPathsParallelDense: the default front
//     door (kBlockedParallel) with track_paths on ER n = 3072 (p = 0.01)
//     and on the paper's dense uniform input (§5.1.4) at n = 1024, b = 64,
//     next to the values-only twins BM_ApspValuesParallel{,Dense};
//     check.sh --paths gates each paths/values time ratio from one process;
//   * BM_Witness/<permille>/<method>: the witness pass alone on a closed
//     ER n = 1024 matrix of the given edge density, scan (0) or product
//     (1) — where the two cross is core/witness.hpp's density threshold.
//
// Every row times wall clock per iteration, and its GFLOP/s counter (the
// metric check.sh --paths gates) is the flop count over the
// first-quartile iteration time. On a shared 4-vCPU VM, other tenants'
// load stretches a varying share of the iterations, by up to 3x on the
// distributed rows: the mean follows that share, the first quartile
// mostly does not.
//
// Baseline numbers live in BENCH_paths.json: each row is its second
// slowest of seven runs of
//   bench_paths --benchmark_min_time=0.5 --benchmark_out=run.json
//               --benchmark_out_format=json
// (the same flags check.sh --paths uses), since even the single-threaded
// rows move by 25% between runs on a shared host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/apsp.hpp"
#include "core/witness.hpp"
#include "dist/driver.hpp"
#include "graph/generators.hpp"
#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"

namespace {

using S = parfw::MinPlus<float>;

parfw::Matrix<float> make(std::size_t r, std::size_t c, std::uint64_t seed) {
  parfw::DenseEntryGen<float> gen(seed, 1.0, 1.0f, 100.0f);
  parfw::Matrix<float> m(r, c);
  gen.fill_block(0, 0, m.view());
  return m;
}

parfw::Matrix<std::int64_t> make_pred(std::size_t r, std::size_t c) {
  parfw::Matrix<std::int64_t> p(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      p(i, j) = static_cast<std::int64_t>((i * 31 + j * 7) % (r * c));
  return p;
}

/// Runs `body` once per iteration and sets GFLOP/s from the
/// first-quartile iteration time.
template <typename F>
void timed_loop(benchmark::State& state, double flops, F&& body) {
  std::vector<double> secs;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  const auto q1 = secs.begin() + static_cast<std::ptrdiff_t>(secs.size() / 4);
  std::nth_element(secs.begin(), q1, secs.end());
  state.counters["GFLOP/s"] = flops / *q1 / 1e9;
}

/// Scalar reference: the triple loop the fused kernel replaced.
void BM_PredScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto A = make(n, n, 1), B = make(n, n, 2), C = make(n, n, 3);
  auto predB = make_pred(n, n);
  parfw::Matrix<std::int64_t> predC(n, n, -1);
  timed_loop(state, parfw::srgemm::flops(n, n, n), [&] {
    parfw::srgemm::multiply_with_pred_reference<S>(
        A.view(), B.view(), C.view(), predB.view(), predC.view());
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(predC.data());
  });
}
BENCHMARK(BM_PredScalar)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// The production fused kernel (SIMD argmin tracking, single thread —
/// same work division as the scalar loop so the ratio is kernel-only).
void BM_PredFused(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto A = make(n, n, 1), B = make(n, n, 2), C = make(n, n, 3);
  auto predB = make_pred(n, n);
  parfw::Matrix<std::int64_t> predC(n, n, -1);
  timed_loop(state, parfw::srgemm::flops(n, n, n), [&] {
    parfw::srgemm::multiply_with_pred<S>(A.view(), B.view(), C.view(),
                                         predB.view(), predC.view());
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(predC.data());
  });
}
BENCHMARK(BM_PredFused)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// The 2x2 per-rank outer-update shape of a paths solve (n = 1536, b = 64:
/// a 768 x 64 column panel times a 64 x 768 row panel into a 768 x 768
/// quadrant), single thread. C is closed (every entry already beats every
/// candidate), the state most of a solve's outer updates see.
/// check.sh --paths gates the pred/values ratio of the two rows: both are
/// measured in one process, so host load mostly cancels out of it.
constexpr std::size_t kOuterM = 768, kOuterK = 64;

void BM_PredOuter(benchmark::State& state) {
  auto A = make(kOuterM, kOuterK, 1), B = make(kOuterK, kOuterM, 2);
  parfw::Matrix<float> C(kOuterM, kOuterM, 1.0f);
  auto predB = make_pred(kOuterK, kOuterM);
  parfw::Matrix<std::int64_t> predC(kOuterM, kOuterM, -1);
  timed_loop(state, parfw::srgemm::flops(kOuterM, kOuterM, kOuterK), [&] {
    parfw::srgemm::multiply_with_pred<S>(A.view(), B.view(), C.view(),
                                         predB.view(), predC.view());
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(predC.data());
  });
}
BENCHMARK(BM_PredOuter)->Unit(benchmark::kMillisecond);

void BM_ValueOuter(benchmark::State& state) {
  auto A = make(kOuterM, kOuterK, 1), B = make(kOuterK, kOuterM, 2);
  parfw::Matrix<float> C(kOuterM, kOuterM, 1.0f);
  timed_loop(state, parfw::srgemm::flops(kOuterM, kOuterM, kOuterK), [&] {
    parfw::srgemm::multiply_prepacked<S>(A.view(), B.view(), C.view());
    benchmark::DoNotOptimize(C.data());
  });
}
BENCHMARK(BM_ValueOuter)->Unit(benchmark::kMillisecond);

/// End-to-end distributed solve, values only — the denominator of the
/// paths-overhead claim. The rows warm up for 2 s first: the first second
/// after the vCPUs idle (e.g. behind the single-threaded BM_PredFused
/// rows) runs these thread-handoff-heavy solves 1.5-2.5x slower.
/// google-benchmark 1.7 honours a row's warm-up only when the row also
/// sets its own MinTime.
void run_dist(benchmark::State& state, bool track_paths) {
  const std::size_t n = 256, b = 32;
  const auto grid = parfw::dist::GridSpec::row_major(2, 2);
  parfw::DenseEntryGen<float> gen(7, 0.85, 1.0f, 90.0f, /*integral=*/true);
  parfw::dist::DistFwOptions opt;
  opt.variant = parfw::sched::Variant::kAsync;
  opt.block_size = b;
  timed_loop(state, parfw::blocked_fw_flops(n), [&] {
    const auto r = parfw::dist::run_parallel_fw<S>(n, gen, grid, 2, opt,
                                                   track_paths);
    benchmark::DoNotOptimize(r.dist.data());
  });
}

void BM_DistValue(benchmark::State& state) { run_dist(state, false); }
BENCHMARK(BM_DistValue)
    ->MinWarmUpTime(2.0)
    ->MinTime(0.5)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DistPaths(benchmark::State& state) { run_dist(state, true); }
BENCHMARK(BM_DistPaths)
    ->MinWarmUpTime(2.0)
    ->MinTime(0.5)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Single-node solve through apsp(): kBlockedParallel on the global pool,
/// b = 64, with or without paths. The graph is built once; each iteration
/// rebuilds the distance matrix inside apsp().
void apsp_parallel(benchmark::State& state, const parfw::Graph& g,
                   bool track_paths) {
  parfw::ApspOptions opt;
  opt.algorithm = parfw::ApspAlgorithm::kBlockedParallel;
  opt.block_size = 64;
  opt.track_paths = track_paths;
  timed_loop(
      state,
      parfw::blocked_fw_flops(static_cast<std::size_t>(g.num_vertices())),
      [&] {
        const auto r = parfw::apsp<S>(g, opt);
        benchmark::DoNotOptimize(r.dist.data());
      });
}

const parfw::Graph& er_3072() {
  static const auto g = parfw::gen::erdos_renyi(3072, 0.01, 7, 1.0, 100.0,
                                                /*integral=*/true);
  return g;
}

const parfw::Graph& dense_1024() {
  static const auto g = parfw::gen::dense_uniform(1024, 7, 1.0, 100.0,
                                                  /*integral=*/true);
  return g;
}

void BM_ApspPathsParallel(benchmark::State& state) {
  apsp_parallel(state, er_3072(), true);
}
BENCHMARK(BM_ApspPathsParallel)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ApspValuesParallel(benchmark::State& state) {
  apsp_parallel(state, er_3072(), false);
}
BENCHMARK(BM_ApspValuesParallel)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ApspPathsParallelDense(benchmark::State& state) {
  apsp_parallel(state, dense_1024(), true);
}
BENCHMARK(BM_ApspPathsParallelDense)
    ->Iterations(9)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ApspValuesParallelDense(benchmark::State& state) {
  apsp_parallel(state, dense_1024(), false);
}
BENCHMARK(BM_ApspValuesParallelDense)
    ->Iterations(9)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The witness pass alone over the global pool: ER n = 1024 with edge
/// density range(0) / 1000 (integral weights), closed once outside the
/// loop; range(1) picks the scan (0) or the product (1). The GFLOP/s
/// counter is nominal: the product's 2n³ over the row's time.
void BM_Witness(benchmark::State& state) {
  const parfw::vertex_t n = 1024;
  const auto g = parfw::gen::erdos_renyi(
      n, static_cast<double>(state.range(0)) / 1000.0, 7, 1.0, 100.0,
      /*integral=*/true);
  const auto w = g.distance_matrix<S>();
  auto d = w.clone();
  parfw::blocked_floyd_warshall<S>(d.view(), {{.block_size = 64}});
  parfw::Matrix<std::int64_t> pred(n, n);
  const auto method = state.range(1) == 0 ? parfw::WitnessMethod::kScan
                                          : parfw::WitnessMethod::kProduct;
  timed_loop(state, parfw::srgemm::flops(n, n, n), [&] {
    parfw::witness_predecessors<S>(w.view(), d.view(), pred.view(),
                                   &parfw::ThreadPool::global(), nullptr,
                                   method);
    benchmark::DoNotOptimize(pred.data());
  });
}
BENCHMARK(BM_Witness)
    ->ArgsProduct({{10, 50, 200, 400, 700}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
