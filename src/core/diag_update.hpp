// DiagUpdate strategies (paper §2.4 step 1 and §4.2).
//
// The diagonal block A(k,k) must be *closed* (all-pairs within the block)
// before it can be applied to the panels. Two strategies:
//
//  * Classic: run sequential FW on the block — O(b³) flops, scalar code.
//  * LogSquaring (Eq. 4): A* = ⊕_i A^i computed by ⌈log₂(b-1)⌉ repeated
//    min-plus squarings. Costs O(b³ log b) flops but every flop is an
//    SRGEMM flop, so on a device whose SRGEMM rate far exceeds its scalar
//    rate it wins — the paper's argument for doing DiagUpdate on the GPU.
#pragma once

#include <cstddef>

#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"
#include "core/floyd_warshall.hpp"
#include "util/matrix.hpp"

namespace parfw {

enum class DiagStrategy {
  kClassic,      ///< sequential FW on the block
  kLogSquaring,  ///< repeated SRGEMM squaring (Eq. 4)
};

/// Number of squarings needed to close a b x b block: paths inside the
/// block have at most b-1 hops, and t squarings cover 2^t hops.
inline std::size_t log_squaring_steps(std::size_t b) {
  if (b <= 2) return b >= 2 ? 1 : 0;
  std::size_t steps = 0, reach = 1;
  while (reach < b - 1) {
    reach *= 2;
    ++steps;
  }
  return steps;
}

/// Close a diagonal block in place with the chosen strategy.
/// `scratch` must be at least b*b elements when using kLogSquaring
/// (pass {} to allocate internally).
template <typename S>
void diag_update(MatrixView<typename S::value_type> block,
                 DiagStrategy strategy = DiagStrategy::kClassic,
                 MatrixView<typename S::value_type> scratch = {}) {
  static_assert(is_idempotent<S>(), "DiagUpdate requires idempotent semiring");
  using T = typename S::value_type;
  PARFW_CHECK(block.rows() == block.cols());
  const std::size_t b = block.rows();
  if (b == 0) return;

  if (strategy == DiagStrategy::kClassic) {
    floyd_warshall<S>(block);
    return;
  }

  // Log-squaring: ensure the diagonal carries the ⊗-identity so that
  // A ⊗ A ⊇ A (the Neumann-series inclusion), then square repeatedly.
  for (std::size_t v = 0; v < b; ++v)
    block(v, v) = S::add(block(v, v), S::one());

  Matrix<T> owned;
  MatrixView<T> tmp = scratch;
  if (tmp.rows() < b || tmp.cols() < b) {
    owned = Matrix<T>(b, b);
    tmp = owned.view();
  } else {
    tmp = tmp.sub(0, 0, b, b);
  }

  const std::size_t steps = log_squaring_steps(b);
  for (std::size_t s = 0; s < steps; ++s) {
    tmp.copy_from(block);
    // block ← block ⊕ tmp ⊗ tmp ( = A ⊕ A² ; with unit diagonal A² ⊇ A )
    srgemm::multiply<S>(tmp, tmp, block);
  }
}

/// Flop count of each strategy, used by the performance model and the
/// bench_diag_update ablation.
inline double diag_update_flops(std::size_t b, DiagStrategy strategy) {
  const double bd = static_cast<double>(b);
  if (strategy == DiagStrategy::kClassic) return 2.0 * bd * bd * bd;
  return 2.0 * bd * bd * bd * static_cast<double>(log_squaring_steps(b));
}

}  // namespace parfw
