// Ablation — operand packing in the SRGEMM kernel (DESIGN.md §4).
//
// The blocked-FW hot shape multiplies thin panels that are strided views
// of a much larger matrix (ld >> cols). Packing copies each macro tile
// into contiguous scratch before the register sweep, trading O(mn+nk)
// copies for dense streaming in the O(mnk) loop — the GotoBLAS recipe the
// paper's CUTLASS kernel applies on the GPU side via shared-memory tiles.
//
// Three rungs are measured on strided panels, all on the one cache-derived
// tile geometry every multiply runs (srgemm::detail::geometry()): the
// scalar kernel on the raw views, the SIMD kernel that packs each A tile
// once per (i0,k0) and each B row panel once per k0, and the *persistent*
// prepacked path: one panel snapshot feeding every MinPlusOuter product of
// a blocked-FW round, the way blocked_fw's round tiles and parallel_fw run
// (BM_FwRound*).
#include <benchmark/benchmark.h>

#include "graph/graph.hpp"
#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"

namespace {

using S = parfw::MinPlus<float>;

/// Panels carved out of a big matrix (ld = 2048 regardless of panel size).
struct StridedOperands {
  parfw::Matrix<float> backing;
  parfw::MatrixView<const float> a, b;
  parfw::MatrixView<float> c;

  StridedOperands(std::size_t m, std::size_t n, std::size_t k)
      : backing(2048, 2048) {
    parfw::DenseEntryGen<float> gen(7, 1.0, 1.0f, 99.0f);
    gen.fill_block(0, 0, backing.view());
    a = backing.sub(0, 0, m, k);
    b = backing.sub(0, 512, k, n);
    c = backing.sub(512, 512, m, n);
  }
};

void run_panel(benchmark::State& state, parfw::srgemm::Kernel kernel) {
  const std::size_t m = 1024, n = 1024,
                    k = static_cast<std::size_t>(state.range(0));
  StridedOperands ops(m, n, k);
  for (auto _ : state) {
    parfw::srgemm::detail::run_slice<S>(ops.a, ops.b, ops.c, kernel,
                                        /*prepacked=*/false);
    benchmark::DoNotOptimize(ops.c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(m, n, k) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_PanelShapeUnpacked(benchmark::State& state) {
  run_panel(state, parfw::srgemm::Kernel::kTiled);
}
BENCHMARK(BM_PanelShapeUnpacked)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_PanelShapeSimd(benchmark::State& state) {
  run_panel(state, parfw::srgemm::Kernel::kSimd);
}
BENCHMARK(BM_PanelShapeSimd)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// One blocked-FW round's MinPlusOuter phase: four quadrant updates that all
// consume the same pivot row/column panels (pivot block in the middle of an
// n x n matrix, block size b = range(0)).
// ---------------------------------------------------------------------------

struct FwRound {
  parfw::Matrix<float> a;
  std::size_t n, b, k0;

  explicit FwRound(std::size_t n_, std::size_t b_) : a(n_, n_), n(n_), b(b_) {
    parfw::DenseEntryGen<float> gen(11, 1.0, 1.0f, 99.0f);
    gen.fill_block(0, 0, a.view());
    k0 = n / 2;
  }

  template <typename Quadrant>
  void quadrants(Quadrant&& q) {
    const std::size_t after0 = k0 + b, after_n = n - after0;
    q(0, k0, 0, k0);
    q(0, k0, after0, after_n);
    q(after0, after_n, 0, k0);
    q(after0, after_n, after0, after_n);
  }
};

double fw_round_flops(std::size_t n, std::size_t b) {
  return parfw::srgemm::flops(n - b, n - b, b);
}

/// Per-quadrant repacking: every quadrant re-packs its own strided slices
/// of the pivot panels inside the kernel.
void BM_FwRoundRepack(benchmark::State& state) {
  const std::size_t n = 1024, b = static_cast<std::size_t>(state.range(0));
  FwRound fw(n, b);
  for (auto _ : state) {
    fw.quadrants([&](std::size_t r0, std::size_t nr, std::size_t c0,
                     std::size_t nc) {
      if (nr == 0 || nc == 0) return;
      parfw::srgemm::multiply<S>(fw.a.sub(r0, fw.k0, nr, b),
                                 fw.a.sub(fw.k0, c0, b, nc),
                                 fw.a.sub(r0, c0, nr, nc));
    });
    benchmark::DoNotOptimize(fw.a.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      fw_round_flops(n, b) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FwRoundRepack)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

/// Persistent panel packing: snapshot the pivot panels once per round and
/// run every quadrant through multiply_prepacked (blocked_fw's round tiles
/// read the same snapshots).
void BM_FwRoundPrepacked(benchmark::State& state) {
  const std::size_t n = 1024, b = static_cast<std::size_t>(state.range(0));
  FwRound fw(n, b);
  parfw::Matrix<float> row_panel(b, n), col_panel(n, b);
  for (auto _ : state) {
    row_panel.view().copy_from(fw.a.sub(fw.k0, 0, b, n));
    col_panel.view().copy_from(fw.a.sub(0, fw.k0, n, b));
    fw.quadrants([&](std::size_t r0, std::size_t nr, std::size_t c0,
                     std::size_t nc) {
      if (nr == 0 || nc == 0) return;
      parfw::srgemm::multiply_prepacked<S>(col_panel.sub(r0, 0, nr, b),
                                           row_panel.sub(0, c0, b, nc),
                                           fw.a.sub(r0, c0, nr, nc));
    });
    benchmark::DoNotOptimize(fw.a.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      fw_round_flops(n, b) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FwRoundPrepacked)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
