// SRGEMM kernel tests: every kernel body vs the naive oracle across shapes
// and semirings, the auto dispatch, the fused pred kernel vs its scalar
// oracle, element-wise ops.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

#include "oracles.hpp"

namespace parfw {
namespace {

template <typename T>
Matrix<T> random_matrix(std::size_t r, std::size_t c, std::uint64_t seed,
                        double inf_prob = 0.0) {
  Matrix<T> m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      m(i, j) = rng.next_double() < inf_prob
                    ? value_traits<T>::infinity()
                    : static_cast<T>(rng.next_double() * 100.0);
  return m;
}

using Shape = std::tuple<int, int, int>;  // m, n, k

class SrgemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(SrgemmShapes, TiledMatchesNaiveMinPlusFloat) {
  using S = MinPlus<float>;
  const auto [m, n, k] = GetParam();
  auto A = random_matrix<float>(m, k, 1, 0.1);
  auto B = random_matrix<float>(k, n, 2, 0.1);
  auto C0 = random_matrix<float>(m, n, 3, 0.2);
  auto C1 = C0.clone();
  srgemm::multiply_reference<S>(A.view(), B.view(), C0.view());
  srgemm::multiply<S>(A.view(), B.view(), C1.view());
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0)
      << "shape " << m << "x" << n << "x" << k;
}

TEST_P(SrgemmShapes, TiledMatchesNaivePlusTimesDouble) {
  // The non-idempotent semiring catches double-accumulation bugs that
  // min-plus would silently absorb.
  using S = PlusTimes<double>;
  const auto [m, n, k] = GetParam();
  auto A = random_matrix<double>(m, k, 4);
  auto B = random_matrix<double>(k, n, 5);
  auto C0 = random_matrix<double>(m, n, 6);
  auto C1 = C0.clone();
  srgemm::multiply_reference<S>(A.view(), B.view(), C0.view());
  srgemm::multiply<S>(A.view(), B.view(), C1.view());
  EXPECT_LT(max_abs_diff<double>(C0.view(), C1.view()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SrgemmShapes,
    ::testing::Values(Shape{1, 1, 1}, Shape{4, 16, 8}, Shape{5, 17, 9},
                      Shape{64, 64, 64}, Shape{63, 65, 31}, Shape{128, 40, 70},
                      Shape{3, 200, 1}, Shape{200, 3, 257}, Shape{33, 47, 129},
                      Shape{100, 100, 100}));

TEST(Srgemm, MaxMinSemiring) {
  using S = MaxMin<float>;
  auto A = random_matrix<float>(20, 30, 7);
  auto B = random_matrix<float>(30, 25, 8);
  Matrix<float> C0(20, 25, S::zero());
  auto C1 = C0.clone();
  srgemm::multiply_reference<S>(A.view(), B.view(), C0.view());
  srgemm::multiply<S>(A.view(), B.view(), C1.view());
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
}

TEST(Srgemm, MinPlusIdentityMatrix) {
  // A ⊗ I == A over min-plus: I has one() on the diagonal, zero() elsewhere.
  using S = MinPlus<float>;
  const std::size_t n = 37;
  auto A = random_matrix<float>(n, n, 11);
  Matrix<float> I(n, n, S::zero());
  for (std::size_t i = 0; i < n; ++i) I(i, i) = S::one();
  Matrix<float> C(n, n, S::zero());
  srgemm::multiply<S>(A.view(), I.view(), C.view());
  EXPECT_EQ(max_abs_diff<float>(A.view(), C.view()), 0.0);
}

TEST(Srgemm, AccumulatesIntoC) {
  // Entries of C better than any product path must survive.
  using S = MinPlus<float>;
  Matrix<float> A(2, 2, 10.0f), B(2, 2, 10.0f);
  Matrix<float> C(2, 2, 1.0f);
  srgemm::multiply<S>(A.view(), B.view(), C.view());
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(C(i, j), 1.0f);
}

TEST(Srgemm, ShapeMismatchThrows) {
  using S = MinPlus<float>;
  Matrix<float> A(3, 4), B(5, 6), C(3, 6);
  EXPECT_THROW(srgemm::multiply<S>(A.view(), B.view(), C.view()), check_error);
}

TEST(Srgemm, StridedViewsWork) {
  // Operate on sub-blocks of larger allocations (the blocked-FW pattern).
  using S = MinPlus<float>;
  auto big = random_matrix<float>(100, 100, 31);
  auto A = big.sub(10, 10, 20, 30);
  auto B = big.sub(40, 40, 30, 25);
  Matrix<float> C0(20, 25, S::zero());
  auto C1 = C0.clone();
  srgemm::multiply_reference<S>(A, B, C0.view());
  srgemm::multiply<S>(A, B, C1.view());
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
}

// ---------------------------------------------------------------------------
// Fused predecessor-tracking kernel (multiply_with_pred) vs scalar oracle.
// ---------------------------------------------------------------------------

/// Entries for a pred-kernel test: S::zero() with probability inf_prob,
/// else 1 + a draw below `range` (a small range makes many ties). For
/// MinPlus<int32_t> one entry in eight sits just under the saturation
/// sentinel, so sums saturate onto it.
template <typename S>
void fill_pred_operand(MatrixView<typename S::value_type> m, Rng& rng,
                       double inf_prob, std::uint64_t range) {
  using T = typename S::value_type;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) {
      T v = static_cast<T>(1 + rng.next_below(range));
      if constexpr (std::is_same_v<S, MinPlus<std::int32_t>>)
        if (rng.next_below(8) == 0) v = S::zero() - v;
      m(i, j) = rng.next_double() < inf_prob ? S::zero() : v;
    }
}

void fill_ids(MatrixView<std::int64_t> m, Rng& rng) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      m(i, j) = static_cast<std::int64_t>(rng.next_below(1000));
}

/// multiply_with_pred vs multiply_with_pred_reference on shapes with m
/// and n off the MR/NR grid and k across the 127/128-deep panel limits,
/// on dense operands and on strided sub-views of larger matrices (whose
/// surroundings must stay untouched), with few and with many ties, and
/// with sparse operands.
template <typename S>
void check_pred_kernel(std::uint64_t seed) {
  using T = typename S::value_type;
  constexpr std::size_t kPad = 3;
  const std::uint64_t range = std::is_same_v<S, BoolOrAnd> ? 1 : 50;
  for (auto [m, n, k] :
       {std::tuple{1, 1, 1}, std::tuple{3, 5, 2}, std::tuple{7, 65, 9},
        std::tuple{33, 47, 25}, std::tuple{64, 64, 64},
        std::tuple{5, 97, 127}, std::tuple{9, 131, 128},
        std::tuple{6, 200, 129}, std::tuple{11, 70, 300}}) {
    for (const bool strided : {false, true}) {
      // Few ties; many ties; sparse operands, whose first improvement
      // mostly lands past the first k-panel.
      for (const auto& [values, sparsity] :
           {std::pair{range, 0.15},
            std::pair{std::min<std::uint64_t>(range, 3), 0.15},
            std::pair{range, 0.97}}) {
        const std::size_t pad = strided ? kPad : 0;
        const auto mm = static_cast<std::size_t>(m);
        const auto nn = static_cast<std::size_t>(n);
        const auto kk = static_cast<std::size_t>(k);
        Rng rng(seed + static_cast<std::uint64_t>(m * 100000 + n * 100 + k) +
                (strided ? 7 : 0) + values +
                static_cast<std::uint64_t>(sparsity * 100));
        Matrix<T> A(mm + 2 * pad, kk + 2 * pad), B(kk + 2 * pad, nn + 2 * pad),
            C(mm + 2 * pad, nn + 2 * pad);
        Matrix<std::int64_t> predB(kk + 2 * pad, nn + 2 * pad),
            predC(mm + 2 * pad, nn + 2 * pad);
        fill_pred_operand<S>(A.view(), rng, sparsity, values);
        fill_pred_operand<S>(B.view(), rng, sparsity, values);
        fill_pred_operand<S>(C.view(), rng, 0.4, values);
        fill_ids(predB.view(), rng);
        fill_ids(predC.view(), rng);
        const auto a = A.sub(pad, pad, mm, kk);
        const auto b = B.sub(pad, pad, kk, nn);
        const auto pb = predB.sub(pad, pad, kk, nn);

        auto C_ref = C.clone();
        auto P_ref = predC.clone();
        srgemm::multiply_with_pred_reference<S>(
            a, b, C_ref.sub(pad, pad, mm, nn), pb,
            P_ref.sub(pad, pad, mm, nn));
        auto C_got = C.clone();
        auto P_got = predC.clone();
        srgemm::multiply_with_pred<S>(a, b, C_got.sub(pad, pad, mm, nn), pb,
                                      P_got.sub(pad, pad, mm, nn));
        // The argmin kernel again with 7-deep k-panels, so every shape
        // crosses panel boundaries whatever this host's L1 size.
        auto C_pan = C.clone();
        auto P_pan = predC.clone();
        srgemm::detail::argmin_kernel<S, 4, 2>(
            a, b, C_pan.sub(pad, pad, mm, nn), pb, P_pan.sub(pad, pad, mm, nn),
            /*panel_k=*/7);

        // Whole matrices: the padding around a strided C must not move.
        std::size_t vmism = 0, pmism = 0;
        for (std::size_t i = 0; i < C.rows(); ++i)
          for (std::size_t j = 0; j < C.cols(); ++j) {
            vmism += (C_ref(i, j) != C_got(i, j)) + (C_ref(i, j) != C_pan(i, j));
            pmism += (P_ref(i, j) != P_got(i, j)) + (P_ref(i, j) != P_pan(i, j));
          }
        EXPECT_EQ(vmism, 0u) << m << "x" << n << "x" << k
                             << " strided=" << strided << " range=" << values
                             << " sparsity=" << sparsity;
        EXPECT_EQ(pmism, 0u) << m << "x" << n << "x" << k
                             << " strided=" << strided << " range=" << values
                             << " sparsity=" << sparsity;
      }
    }
  }
}

TEST(SrgemmPred, FusedKernelMatchesScalarOracleMinPlusFloat) {
  check_pred_kernel<MinPlus<float>>(91);
}
TEST(SrgemmPred, FusedKernelMatchesScalarOracleMinPlusDouble) {
  check_pred_kernel<MinPlus<double>>(92);
}
TEST(SrgemmPred, FusedKernelMatchesScalarOracleMinPlusInt32) {
  check_pred_kernel<MinPlus<std::int32_t>>(93);
}
TEST(SrgemmPred, FusedKernelMatchesScalarOracleMaxMinFloat) {
  check_pred_kernel<MaxMin<float>>(94);
}
TEST(SrgemmPred, FusedKernelMatchesScalarOracleBoolOrAnd) {
  check_pred_kernel<BoolOrAnd>(96);
}

TEST(SrgemmPred, AliasedOperandsAreRefused) {
  // The argmin kernel reads operands while it writes C and predC, so an
  // output that overlaps an input (the in-place panel forms B ≡ C and
  // A ≡ C) is refused before anything is written.
  using S = MinPlus<float>;
  const std::size_t bk = 16, nc = 24;
  Rng rng(97);
  Matrix<float> akk(bk, bk), row(bk, nc), col(nc, bk);
  fill_pred_operand<S>(akk.view(), rng, 0.3, 50);
  fill_pred_operand<S>(row.view(), rng, 0.5, 50);
  fill_pred_operand<S>(col.view(), rng, 0.5, 50);
  Matrix<std::int64_t> pkk(bk, bk), prow(bk, nc), pcol(nc, bk);
  fill_ids(pkk.view(), rng);
  fill_ids(prow.view(), rng);
  fill_ids(pcol.view(), rng);
  const auto row0 = row.clone();
  EXPECT_THROW(srgemm::multiply_with_pred<S>(akk.view(), row.view(),
                                             row.view(), prow.view(),
                                             prow.view()),
               check_error);
  const auto col0 = col.clone();
  EXPECT_THROW(srgemm::multiply_with_pred<S>(col.view(), akk.view(),
                                             col.view(), pkk.view(),
                                             pcol.view()),
               check_error);
  EXPECT_EQ(max_abs_diff<float>(row0.view(), row.view()), 0.0);
  EXPECT_EQ(max_abs_diff<float>(col0.view(), col.view()), 0.0);
}

TEST(SrgemmPred, DisjointSubViewsOfOnePredMatrix) {
  // The single-node outer tiles: C is a tile of the distance matrix, A and
  // B are snapshot panels, predB = pred.sub(k0, c0, ...) and predC =
  // pred.sub(r0, c0, ...) are disjoint block rows of ONE pred matrix.
  using S = MinPlus<float>;
  const std::size_t n = 200, b = 48, k0 = 48, c0 = 16, nc = 150;
  Rng rng(98);
  Matrix<float> D(n, n), col_panel(n, b), row_panel(b, n);
  fill_pred_operand<S>(D.view(), rng, 0.4, 50);
  fill_pred_operand<S>(col_panel.view(), rng, 0.15, 50);
  fill_pred_operand<S>(row_panel.view(), rng, 0.15, 50);
  Matrix<std::int64_t> P(n, n);
  fill_ids(P.view(), rng);
  for (const std::size_t r0 : {std::size_t{0}, std::size_t{96}}) {
    const std::size_t nr = 45;
    const auto lhs = col_panel.sub(r0, 0, nr, b);
    const auto rhs = row_panel.sub(0, c0, b, nc);
    auto D_ref = D.clone();
    auto P_ref = P.clone();
    srgemm::multiply_with_pred_reference<S>(
        lhs, rhs, D_ref.sub(r0, c0, nr, nc), P_ref.sub(k0, c0, b, nc),
        P_ref.sub(r0, c0, nr, nc));
    srgemm::multiply_with_pred<S>(lhs, rhs, D.sub(r0, c0, nr, nc),
                                  P.sub(k0, c0, b, nc), P.sub(r0, c0, nr, nc));
    EXPECT_EQ(max_abs_diff<float>(D_ref.view(), D.view()), 0.0) << r0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(P_ref(i, j), P(i, j)) << r0 << ": " << i << "," << j;
  }
}

TEST(SrgemmPred, DispatchMetricsLabelEachKernel) {
  // multiply_with_pred records srgemm.calls/flops/seconds like multiply(),
  // under kernel=argmin; a refused (aliased) call records nothing.
  using S = MinPlus<float>;
  auto& reg = telemetry::Registry::global();
  const bool was = telemetry::enabled();
  telemetry::set_enabled(true);
  auto& argmin = reg.counter("srgemm.calls", "kernel=argmin");
  auto& argmin_flops = reg.counter("srgemm.flops", "kernel=argmin");
  const std::uint64_t argmin0 = argmin.value();
  const std::uint64_t flops0 = argmin_flops.value();

  Rng rng(99);
  Matrix<float> A(8, 4), B(4, 40), C(8, 40);
  fill_pred_operand<S>(A.view(), rng, 0.0, 50);
  fill_pred_operand<S>(B.view(), rng, 0.0, 50);
  fill_pred_operand<S>(C.view(), rng, 0.0, 50);
  Matrix<std::int64_t> pB(4, 40, 1), pC(8, 40, 2);
  srgemm::multiply_with_pred<S>(A.view(), B.view(), C.view(), pB.view(),
                                pC.view());
  EXPECT_EQ(argmin.value(), argmin0 + 1);
  EXPECT_EQ(argmin_flops.value(), flops0 + 2 * 8 * 40 * 4);

  Matrix<float> akk(8, 8, 0.0f);
  EXPECT_THROW(srgemm::multiply_with_pred<S>(akk.view(), C.view(), C.view(),
                                             pC.view(), pC.view()),
               check_error);
  EXPECT_EQ(argmin.value(), argmin0 + 1);
  telemetry::set_enabled(was);
}

// ---------------------------------------------------------------------------
// Kernel-variant cross-validation: every kernel body must produce a
// bit-identical distance matrix to the naive oracle, on fringe shapes (m,
// n, k not multiples of MR/NR/tile sizes) and on strided sub-views, for
// all vectorizable FW semirings. The bodies are called directly with small
// macro tiles, so every shape crosses several tile boundaries whatever
// this host's cache geometry; the multiply()/multiply_prepacked() front
// doors run alongside them on the process geometry.
// ---------------------------------------------------------------------------

/// One kernel body on small macro tiles, named for failure messages.
template <typename S>
struct KernelBody {
  using T = typename S::value_type;
  const char* name;
  void (*run)(MatrixView<const T>, MatrixView<const T>, MatrixView<T>);
};

template <typename S>
std::vector<KernelBody<S>> kernel_bodies() {
  using T = typename S::value_type;
  using A = MatrixView<const T>;
  using C = MatrixView<T>;
  constexpr std::size_t tm = 16, tn = 32, tk = 24;
  return {
      {"naive", [](A a, A b, C c) { srgemm::detail::naive_kernel<S>(a, b, c); }},
      {"tiled",
       [](A a, A b, C c) {
         srgemm::detail::tiled_kernel<S>(a, b, c, tm, tn, tk);
       }},
      {"simd 4x4",
       [](A a, A b, C c) {
         srgemm::detail::tiled_kernel_simd<S, 4, 4>(a, b, c, tm, tn, tk, true);
       }},
      {"simd 4x4 prepacked",
       [](A a, A b, C c) {
         srgemm::detail::tiled_kernel_simd<S, 4, 4>(a, b, c, tm, tn, tk, false);
       }},
      {"simd 4x2",
       [](A a, A b, C c) {
         srgemm::detail::tiled_kernel_simd<S, 4, 2>(a, b, c, tm, tn, tk, true);
       }},
      {"simd 4x2 prepacked",
       [](A a, A b, C c) {
         srgemm::detail::tiled_kernel_simd<S, 4, 2>(a, b, c, tm, tn, tk, false);
       }},
      {"multiply", [](A a, A b, C c) { srgemm::multiply<S>(a, b, c); }},
      {"multiply_prepacked",
       [](A a, A b, C c) { srgemm::multiply_prepacked<S>(a, b, c); }},
  };
}

/// Every kernel body on C ⊕= A ⊗ B against the naive oracle, exactly.
template <typename S>
void expect_all_kernels_match(MatrixView<const typename S::value_type> A,
                              MatrixView<const typename S::value_type> B,
                              const Matrix<typename S::value_type>& C0,
                              const std::string& what) {
  using T = typename S::value_type;
  auto expected = C0.clone();
  srgemm::multiply_reference<S>(A, B, expected.view());
  for (const KernelBody<S>& body : kernel_bodies<S>()) {
    auto C = C0.clone();
    body.run(A, B, C.view());
    EXPECT_EQ(max_abs_diff<T>(expected.view(), C.view()), 0.0)
        << body.name << " " << what;
  }
}

template <typename S>
void check_all_kernels(std::uint64_t seed, double inf_prob) {
  using T = typename S::value_type;
  // Deliberately awkward shapes: below one micro-tile, fringe in every
  // dimension, and spanning several macro tiles.
  for (auto [m, n, k] :
       {std::tuple{1, 1, 1}, std::tuple{3, 5, 2}, std::tuple{7, 65, 9},
        std::tuple{33, 47, 25}, std::tuple{65, 130, 70},
        std::tuple{100, 31, 129}}) {
    Matrix<T> A(m, k), B(k, n), C0(m, n);
    Rng rng(seed);
    auto fill = [&](Matrix<T>& mat) {
      for (std::size_t i = 0; i < mat.rows(); ++i)
        for (std::size_t j = 0; j < mat.cols(); ++j)
          mat(i, j) = rng.next_double() < inf_prob
                          ? S::zero()
                          : static_cast<T>(rng.next_double() * 60.0);
    };
    fill(A);
    fill(B);
    fill(C0);
    expect_all_kernels_match<S>(A.view(), B.view(), C0,
                                "shape " + std::to_string(m) + "x" +
                                    std::to_string(n) + "x" +
                                    std::to_string(k));
  }
}

TEST(SrgemmKernels, AllVariantsMatchReferenceMinPlusFloat) {
  check_all_kernels<MinPlus<float>>(101, 0.15);
}

TEST(SrgemmKernels, AllVariantsMatchReferenceMinPlusInt32) {
  // Integral tropical ⊗ exercises the vsat_add sentinel/overflow path.
  check_all_kernels<MinPlus<std::int32_t>>(102, 0.15);
}

TEST(SrgemmKernels, IntegralSaturationWithNegativeWeights) {
  // inf ⊗ w must stay absorbing even for negative w; the SIMD vsat_add
  // pins infinite lanes explicitly (clamping alone would yield inf + w).
  using S = MinPlus<std::int32_t>;
  const std::size_t m = 37, n = 53, k = 29;
  Matrix<std::int32_t> A(m, k), B(k, n), C0(m, n);
  Rng rng(107);
  auto fill = [&](Matrix<std::int32_t>& mat) {
    for (std::size_t i = 0; i < mat.rows(); ++i)
      for (std::size_t j = 0; j < mat.cols(); ++j) {
        const double u = rng.next_double();
        mat(i, j) = u < 0.2 ? value_traits<std::int32_t>::infinity()
                            : static_cast<std::int32_t>(u * 100.0) - 40;
      }
  };
  fill(A);
  fill(B);
  fill(C0);
  expect_all_kernels_match<S>(A.view(), B.view(), C0, "37x53x29");
}

TEST(SrgemmKernels, AllVariantsMatchReferenceMaxMin) {
  check_all_kernels<MaxMin<float>>(103, 0.1);
}

TEST(SrgemmKernels, AllVariantsMatchReferenceBoolOr) {
  using S = BoolOrAnd;
  for (auto [m, n, k] : {std::tuple{5, 67, 9}, std::tuple{64, 64, 64},
                         std::tuple{77, 130, 131}}) {
    Matrix<std::uint8_t> A(m, k), B(k, n), C0(m, n);
    Rng rng(104);
    auto fill = [&](Matrix<std::uint8_t>& mat) {
      for (std::size_t i = 0; i < mat.rows(); ++i)
        for (std::size_t j = 0; j < mat.cols(); ++j)
          mat(i, j) = rng.next_double() < 0.3 ? 1 : 0;
    };
    fill(A);
    fill(B);
    fill(C0);
    expect_all_kernels_match<S>(A.view(), B.view(), C0,
                                "shape " + std::to_string(m) + "x" +
                                    std::to_string(n) + "x" +
                                    std::to_string(k));
  }
}

TEST(SrgemmKernels, AllVariantsOnStridedSubViews) {
  // Operands carved out of one backing matrix with ld >> cols — the
  // blocked-FW panel pattern — for every kernel body.
  using S = MinPlus<float>;
  auto big = random_matrix<float>(260, 260, 105, 0.05);
  const auto C0 = random_matrix<float>(60, 83, 106);
  expect_all_kernels_match<S>(big.sub(3, 7, 60, 41), big.sub(70, 11, 41, 83),
                              C0, "strided");
}

TEST(SrgemmDispatch, AutoRunsTheSimdKernelOnVectorBuilds) {
  // A silent fallback to a scalar kernel would keep every result right and
  // cost ~20x in time, so the dispatch itself is pinned here.
  if constexpr (simd::kNativeBytes == 0) {
    GTEST_SKIP() << "no vector ISA in this build";
  } else {
    using srgemm::Kernel;
    EXPECT_EQ(srgemm::detail::resolve_kernel<MinPlus<float>>(Kernel::kAuto),
              Kernel::kSimd);
    EXPECT_EQ(srgemm::detail::resolve_kernel<MinPlus<double>>(Kernel::kAuto),
              Kernel::kSimd);
    EXPECT_EQ(
        srgemm::detail::resolve_kernel<MinPlus<std::int32_t>>(Kernel::kAuto),
        Kernel::kSimd);
    EXPECT_EQ(srgemm::detail::resolve_kernel<MaxMin<float>>(Kernel::kAuto),
              Kernel::kSimd);
    EXPECT_EQ(srgemm::detail::resolve_kernel<MaxMin<double>>(Kernel::kAuto),
              Kernel::kSimd);
    EXPECT_EQ(srgemm::detail::resolve_kernel<BoolOrAnd>(Kernel::kAuto),
              Kernel::kSimd);
    EXPECT_EQ(srgemm::detail::resolve_kernel<PlusTimes<double>>(Kernel::kAuto),
              Kernel::kSimd);

    // The PARFW_KERNEL / PARFW_MICRO ablation pins override the auto
    // dispatch this checks.
    const auto& pins = srgemm::detail::env_pins();
    if (pins.kernel != Kernel::kAuto ||
        pins.micro != srgemm::MicroShape::kAuto)
      GTEST_SKIP() << "PARFW_KERNEL / PARFW_MICRO set";
    const std::string labels = std::string("kernel=simd,micro=") +
                               (simd::kNativeBytes >= 64 ? "4x4" : "4x2");
    using S = MinPlus<float>;
    auto& reg = telemetry::Registry::global();
    const bool was = telemetry::enabled();
    telemetry::set_enabled(true);
    auto& calls = reg.counter("srgemm.calls", labels);
    const std::uint64_t calls0 = calls.value();
    auto A = random_matrix<float>(9, 20, 108);
    auto B = random_matrix<float>(20, 33, 109);
    auto C = random_matrix<float>(9, 33, 110);
    srgemm::multiply<S>(A.view(), B.view(), C.view());
    telemetry::set_enabled(was);
    EXPECT_EQ(calls.value(), calls0 + 1) << labels;
  }
}

TEST(SrgemmGeometry, CacheDerivedAndBounded) {
  // The GotoBLAS rule on a 48 KiB L1 / 2 MiB L2 host, and on the fallback
  // sizes used when the OS reports none.
  using srgemm::detail::CacheGeometry;
  using srgemm::detail::geometry_for;
  const auto big = geometry_for(CacheGeometry{48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(big.tile_m, 512u);
  EXPECT_EQ(big.tile_n, 512u);
  EXPECT_EQ(big.tile_k, 96u);
  EXPECT_EQ(big.l1, 48u * 1024);
  const auto fallback = geometry_for(CacheGeometry{});
  EXPECT_EQ(fallback.tile_m, 512u);
  EXPECT_EQ(fallback.tile_k, 64u);
  // This host's geometry is probed once and stays inside the clamps.
  const auto& g = srgemm::detail::geometry();
  EXPECT_EQ(&g, &srgemm::detail::geometry());
  EXPECT_GE(g.tile_k, 32u);
  EXPECT_LE(g.tile_k, 512u);
  EXPECT_GE(g.tile_m, 32u);
  EXPECT_LE(g.tile_m, 512u);
  EXPECT_GT(g.l1, 0u);
}

TEST(Srgemm, EwiseAdd) {
  using S = MinPlus<float>;
  auto X = random_matrix<float>(13, 17, 51);
  auto C = random_matrix<float>(13, 17, 52);
  auto expected = C.clone();
  for (std::size_t i = 0; i < 13; ++i)
    for (std::size_t j = 0; j < 17; ++j)
      expected(i, j) = std::min(expected(i, j), X(i, j));
  srgemm::ewise_add<S>(X.view(), C.view());
  EXPECT_EQ(max_abs_diff<float>(expected.view(), C.view()), 0.0);
}

TEST(Srgemm, EwiseAddStridedViewWithFringe) {
  // Width crossing several vectors plus a fringe, on strided views, must
  // match the scalar oracle.
  using S = MinPlus<float>;
  auto backing = random_matrix<float>(120, 150, 53);
  auto X = backing.sub(2, 3, 100, 131);
  auto C0 = random_matrix<float>(100, 131, 54);
  auto expected = C0.clone();
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = 0; j < 131; ++j)
      expected(i, j) = std::min(expected(i, j), X(i, j));
  srgemm::ewise_add<S>(X, C0.view());
  EXPECT_EQ(max_abs_diff<float>(expected.view(), C0.view()), 0.0);
}

TEST(Srgemm, FlopCountConvention) {
  EXPECT_DOUBLE_EQ(srgemm::flops(10, 20, 30), 2.0 * 10 * 20 * 30);
}

TEST(Srgemm, EmptyProductIsNoop) {
  using S = MinPlus<float>;
  Matrix<float> A(5, 0), B(0, 7);
  auto C = random_matrix<float>(5, 7, 61);
  auto before = C.clone();
  srgemm::multiply<S>(A.view(), B.view(), C.view());
  EXPECT_EQ(max_abs_diff<float>(before.view(), C.view()), 0.0);
}

}  // namespace
}  // namespace parfw
