// Schedule IR — the single source of truth for every ParallelFw variant's
// control flow (DESIGN.md §2 system #15).
//
// A Schedule is a globally ordered list of per-rank ops: compute phases
// (DiagUpdate / PanelUpdate / Lookahead / OuterUpdate) and collective
// steps (DiagBcast / PanelBcast over the process row or column, tree or
// ring) annotated with tags, roots, block coordinates and flop/byte
// metadata. One generator per variant (build_schedule) emits it; two
// interpreters consume it:
//
//   * dist::parallel_fw — binds each op to real data: SRGEMM calls,
//     mpisim collectives, the devsim/ooGSrGemm path for kOffload;
//   * perf::build_fw_program — lowers each op to DES metadata (seconds
//     from the flop counts, send/recv expansions of the collectives with
//     the same node-aware relay orders mpisim uses).
//
// Restricting a Schedule's global order to one rank yields exactly that
// rank's program order, so both interpreters replay identical per-rank
// op sequences — the property the DES-vs-real cross-validation tests
// pin down. Before this IR existed the two sides maintained the schedule
// by hand in parallel (dist/parallel_fw.hpp vs perf/schedule.cpp) with a
// comment promising they "mirror exactly"; now there is nothing to
// mirror.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dist/grid.hpp"
#include "sched/variant.hpp"
#include "util/check.hpp"

namespace parfw::sched {

// --- tag space ---------------------------------------------------------------
//
// The per-iteration tag space is owned HERE, by the IR: every interpreter
// derives its tags from tag_of, so concurrent iterations' collectives (the ring
// broadcast of iteration k+1 overlaps iteration k's) can never
// cross-match. kTagsPerIter tags are reserved per iteration; phases are
// the indices below.

inline constexpr int kTagDiagRow = 0;       ///< DiagBcast across the row
inline constexpr int kTagDiagCol = 1;       ///< DiagBcast down the column
inline constexpr int kTagRowPanel = 2;      ///< row PanelBcast (down columns)
inline constexpr int kTagColPanel = 3;      ///< col PanelBcast (across rows)
inline constexpr int kTagsPerIter = 4;
/// Offset keeping schedule tags clear of the small negative/positive tags
/// the communicator layer uses internally (split, reductions, gathers).
inline constexpr std::int32_t kTagBase = 1000;

/// Injective map (k, phase) -> tag. Injectivity over distinct iterations
/// is what makes overlapping ring broadcasts safe; sched_test proves it.
constexpr std::int32_t tag_of(std::size_t k, int phase) {
  return kTagBase +
         static_cast<std::int32_t>(kTagsPerIter * k +
                                   static_cast<std::size_t>(phase));
}

// --- ops ---------------------------------------------------------------------

enum class OpKind : std::uint8_t {
  kDiagUpdate,      ///< close A(k,k) in place (owner rank only)
  kDiagBcastRow,    ///< broadcast closed A(k,k) across the owner's row
  kDiagBcastCol,    ///< broadcast closed A(k,k) down the owner's column
  kPanelUpdateRow,  ///< A(k,:) <- A(k,:) ⊕ akk ⊗ A(k,:)  (k-th process row)
  kPanelUpdateCol,  ///< A(:,k) <- A(:,k) ⊕ A(:,k) ⊗ akk  (k-th process col)
  kRowPanelBcast,   ///< broadcast the row panel down the process columns
  kColPanelBcast,   ///< broadcast the col panel across the process rows
  kLookaheadRow,    ///< OuterUpdate(k) restricted to the (k+1) row strip
  kLookaheadCol,    ///< OuterUpdate(k) restricted to the (k+1) col strip
  kOuterUpdate,     ///< bulk OuterUpdate(k) on the whole local matrix
  kCheckpoint,      ///< coordinated snapshot cut before iteration k
};

inline const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kDiagUpdate: return "DiagUpdate";
    case OpKind::kDiagBcastRow: return "DiagBcastRow";
    case OpKind::kDiagBcastCol: return "DiagBcastCol";
    case OpKind::kPanelUpdateRow: return "PanelUpdateRow";
    case OpKind::kPanelUpdateCol: return "PanelUpdateCol";
    case OpKind::kRowPanelBcast: return "RowPanelBcast";
    case OpKind::kColPanelBcast: return "ColPanelBcast";
    case OpKind::kLookaheadRow: return "LookaheadRow";
    case OpKind::kLookaheadCol: return "LookaheadCol";
    case OpKind::kOuterUpdate: return "OuterUpdate";
    case OpKind::kCheckpoint: return "Checkpoint";
  }
  return "?";
}

inline bool is_comm(OpKind kind) {
  switch (kind) {
    case OpKind::kDiagBcastRow:
    case OpKind::kDiagBcastCol:
    case OpKind::kRowPanelBcast:
    case OpKind::kColPanelBcast: return true;
    default: return false;
  }
}
inline bool is_comp(OpKind kind) { return !is_comm(kind); }

/// Collective algorithm of a comm op (§3.3: tree for latency-bound
/// DiagBcast, ring for bandwidth-bound PanelBcast in kAsync).
enum class CollKind : std::uint8_t { kNone, kTree, kRing };

struct Op {
  OpKind kind = OpKind::kOuterUpdate;
  std::uint32_t k = 0;               ///< FW iteration this op belongs to
  CollKind coll = CollKind::kNone;   ///< comm ops: collective algorithm
  std::int32_t tag = 0;              ///< comm ops: match tag (tag_of)
  std::int32_t root = -1;            ///< comm ops: root's LOCAL rank in scope
  std::int64_t bytes = 0;            ///< comm ops: payload bytes per member
  double flops = 0.0;                ///< compute ops: arithmetic work
  bool offload = false;              ///< kOuterUpdate: stream via ooGSrGemm
};

/// One schedule entry: op to be executed by `rank` (world rank).
struct Step {
  std::int32_t rank = 0;
  Op op;
};

/// A generated schedule. `steps` is in global generation order; the
/// subsequence with steps[i].rank == w is rank w's program, in order.
struct Schedule {
  Variant variant = Variant::kBaseline;
  std::size_t nb = 0;  ///< blocks per matrix dimension
  std::size_t b = 0;   ///< block size
  /// The placement it was built on: shape and each rank's coordinate.
  dist::GridSpec grid;
  std::vector<Step> steps;

  /// Rank w's ops, in program order (convenience for interpreters that
  /// want a materialised per-rank view).
  std::vector<Op> rank_program(int w) const {
    std::vector<Op> out;
    for (const Step& s : steps)
      if (s.rank == w) out.push_back(s.op);
    return out;
  }
};

/// Observer of schedule materialisation — the second half of the live-
/// monitoring seam (the first is TraceSink). The data-carrying
/// interpreter calls on_schedule from EVERY rank thread right after that
/// rank built its Schedule and before it executes any step, so an
/// observer that also receives the rank's trace events is guaranteed to
/// know the schedule before the rank's first op event arrives (the
/// observer's own synchronisation orders the calls). All ranks hand over
/// the identical Schedule; implementations must tolerate the repeated,
/// concurrent calls (src/monitor/ RunMonitor adopts the first).
class ScheduleObserver {
 public:
  virtual ~ScheduleObserver() = default;
  virtual void on_schedule(const Schedule& s) = 0;
};

struct ScheduleParams {
  Variant variant = Variant::kBaseline;
  std::size_t nb = 0;          ///< blocks per dimension (n / b)
  std::size_t b = 0;           ///< block size
  std::size_t word_bytes = 4;  ///< sizeof one matrix element
  double diag_flops = 0.0;     ///< cost metadata for one DiagUpdate
  /// Resume support: first pivot iteration to EXECUTE. A schedule built
  /// with start_k > 0 assumes the matrix state already reflects all
  /// iterations < start_k (a loaded checkpoint); the pipelined/async
  /// generators re-emit the prologue (Diag/Panel/Bcast of start_k) so the
  /// panel buffers — which are never checkpointed — are regenerated.
  /// Re-running those closed-panel updates is a bit-identical no-op under
  /// the idempotent ⊕ (same argument as the in-place PanelUpdate).
  std::size_t start_k = 0;
  /// Emit a coordinated kCheckpoint cut (one op per rank) before every
  /// iteration k with k % checkpoint_every == 0 and k > start_k. 0 = off.
  /// Cuts sit at points where all collectives of iterations < k are
  /// complete on every rank, so the tiles alone define the remaining work.
  std::size_t checkpoint_every = 0;

  /// Two parameter sets are equal iff build_schedule is guaranteed to
  /// emit the same Schedule for them on any given grid — the contract
  /// memoization keys (the tuner's DES evaluation cache) rely on.
  friend bool operator==(const ScheduleParams& a, const ScheduleParams& b) {
    return a.variant == b.variant && a.nb == b.nb && a.b == b.b &&
           a.word_bytes == b.word_bytes &&
           a.diag_flops == b.diag_flops && a.start_k == b.start_k &&
           a.checkpoint_every == b.checkpoint_every;
  }
  friend bool operator!=(const ScheduleParams& a, const ScheduleParams& b) {
    return !(a == b);
  }
};

/// Order-dependent 64-bit hash combiner (splitmix-style mixing), shared
/// by every cache that keys on schedule configurations.
inline std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  return h ^ (h >> 33);
}

/// Hash consistent with ScheduleParams::operator== (equal params hash
/// equal). diag_flops participates through its bit pattern — the value is
/// computed, not measured, so bit-equality is the right granularity.
inline std::uint64_t hash_of(const ScheduleParams& p) {
  std::uint64_t df;
  static_assert(sizeof df == sizeof p.diag_flops);
  std::memcpy(&df, &p.diag_flops, sizeof df);
  std::uint64_t h = 0x853c49e6748fea9bull;
  h = hash_combine(h, static_cast<std::uint64_t>(p.variant));
  h = hash_combine(h, p.nb);
  h = hash_combine(h, p.b);
  h = hash_combine(h, p.word_bytes);
  h = hash_combine(h, df);
  h = hash_combine(h, p.start_k);
  h = hash_combine(h, p.checkpoint_every);
  return h;
}

/// Generate the schedule for one variant on one placement. The grid IS
/// the placement parameter: pass a GridSpec::tiled grid and +Reordering
/// falls out of the same generator.
Schedule build_schedule(const dist::GridSpec& grid, const ScheduleParams& p);

/// Metadata totals of a schedule. payload_bytes sums each comm op's
/// per-member payload (NOT wire bytes — collective expansion decides how
/// many times a payload crosses links; see perf::program_traffic).
struct ScheduleTotals {
  double flops = 0.0;
  std::int64_t payload_bytes = 0;
  std::size_t comp_ops = 0;
  std::size_t comm_ops = 0;
};
ScheduleTotals totals(const Schedule& s);

}  // namespace parfw::sched
