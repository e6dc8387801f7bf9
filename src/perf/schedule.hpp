// Skeleton-program lowering for the discrete-event simulator.
//
// build_fw_program() is the METADATA-COSTING interpreter of the schedule
// IR: it asks sched::build_schedule (src/sched/ir.hpp) for the variant's
// schedule — the same one dist::parallel_fw executes with real data —
// and lowers each step into per-rank op lists (compute / send / recv).
// Compute steps take their durations from perf::op_cost
// (perf/cost_model.hpp), the one per-op price the run monitor charges
// too; the lowering only overlays the FwProblem jitter / comm-only
// switches. Collective steps expand into point-to-point sends/receives
// with the same node-aware relay orders as the functional mpisim
// runtime, which the DES then simulates with contention. This is what
// lets the simulator replay a 256-node, n = 1.6M run on one core
// (DESIGN.md §1, last row of the substitution table). The IR generator
// is the single source of truth for the schedule, op_cost for its price.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/grid.hpp"
#include "dist/parallel_fw.hpp"
#include "perf/cost_model.hpp"

namespace parfw::perf {

struct Op {
  enum class Kind : std::uint8_t { kComp, kSend, kRecv };
  Kind kind = Kind::kComp;
  double seconds = 0.0;      ///< kComp: duration on this rank's GPU
  int peer = -1;             ///< kSend: dst world rank; kRecv: src world rank
  std::int64_t bytes = 0;    ///< kSend: payload size
  std::int32_t tag = 0;      ///< kSend/kRecv: match key
  std::uint32_t k = 0;       ///< FW iteration of the originating IR op
  /// sched::OpKind of the originating IR op (trace labels), -1 if none.
  std::int16_t kind_src = -1;
  /// kComp: the IR op's modelled arithmetic work. Carried into the DES
  /// trace events so a modelled run's per-phase flop totals reconcile
  /// exactly against a real run of the same schedule (perf/reconcile.hpp).
  double flops = 0.0;
};

using RankProgram = std::vector<Op>;

/// A built skeleton: per-process op lists plus the node map covering any
/// auxiliary "NIC agent" processes the schedule added (background relays).
struct BuiltProgram {
  std::vector<RankProgram> programs;
  std::vector<int> node_of;  ///< sized to programs (ranks + agents)
};

/// Build the per-rank programs for one FW run on the given grid/placement.
/// `node_of[w]` maps world ranks to nodes (NIC domains).
BuiltProgram build_fw_program(const MachineConfig& m, const FwProblem& prob,
                              const dist::GridSpec& grid,
                              const std::vector<int>& node_of);

/// Standalone broadcast programs (for the ring-vs-tree DES experiments).
std::vector<RankProgram> build_bcast_program(int ranks, std::int64_t bytes,
                                             bool ring,
                                             const std::vector<int>& node_of);

/// Wire-level traffic a built program would generate, summed over its
/// kSend ops — directly comparable to the TrafficStats mpisim accounts
/// when the real interpreter executes the same schedule (the DES-vs-real
/// cross-validation tests rely on this).
struct WireTotals {
  std::int64_t bytes_total = 0;
  std::int64_t bytes_internode = 0;
  std::uint64_t sends = 0;
};
WireTotals program_traffic(const std::vector<RankProgram>& programs,
                           const std::vector<int>& node_of);

}  // namespace parfw::perf
