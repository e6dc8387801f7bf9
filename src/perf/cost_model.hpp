// Closed-form performance models from the paper.
//
//   Eq. (1)  compute term 2n³/P·t_f, the perfect-overlap floor
//   §3.4.1   per-node volume lower bound  t_w·n²(Q_r/P_r + Q_c/P_c)
//   §4.5     ooGSrGemm phase costs t0/t1/t2 and the s-stream combinations
//   Eq. (5)  minimum block size for offload to be compute-bound
//
// These are used four ways: to sanity-check the discrete-event simulator
// (tests assert agreement for the baseline), to pick tuning parameters,
// to compute the figures' reference lines (peak, compute-bound
// threshold, GPU-memory feasibility), and — through op_cost — to price
// every schedule op for both the DES lowering and the run monitor.
#pragma once

#include <cstddef>

#include "dist/grid.hpp"
#include "perf/machine.hpp"
#include "sched/ir.hpp"

namespace parfw::perf {

struct GridShape {
  int pr = 1, pc = 1;  ///< process grid
  int qr = 1, qc = 1;  ///< intranode grid
  int kr() const { return pr / qr; }
  int kc() const { return pc / qc; }
  int ranks() const { return pr * pc; }
  int nodes() const { return kr() * kc(); }
};

/// Total FW flops under the paper's 2n³ convention.
double fw_flops(double n);

/// Pure compute time 2n³/(P·srgemm_flops/ranks_per_gpu) — the
/// perfect-overlap floor, each rank getting its share of a GPU.
double model_compute_time(const MachineConfig& m, double n, int ranks);

/// §3.4.1 per-node communication volume (bytes) for one full FW run:
/// n²·word·(Q_r/P_r + Q_c/P_c) = n²·word·(1/K_r + 1/K_c).
double model_node_volume(const MachineConfig& m, double n, const GridShape& g);

/// Minimum per-node volume over all node-grid factorisations of `nodes`
/// (the W_min of the paper's effective-bandwidth metric, §5.1.3).
double min_node_volume(const MachineConfig& m, double n, int nodes);

/// Effective per-node bandwidth metric (§5.1.3): W_min / t_fw.
double effective_bandwidth(const MachineConfig& m, double n, int nodes,
                           double t_fw);

/// Problem size above which ParallelFw is compute-bound on `nodes` nodes
/// (the dashed threshold in Figure 4; the paper quotes ~120k on 64 nodes).
double compute_bound_threshold(const MachineConfig& m, int nodes);

/// Largest n whose distance matrix fits in aggregate GPU memory on
/// `nodes` nodes (the "Beyond GPU Memory" wall of Figure 7).
double max_in_gpu_vertices(const MachineConfig& m, int nodes);

// --- §4.5: out-of-device SRGEMM -------------------------------------------

struct OogCost {
  double t0 = 0;  ///< SRGEMM compute
  double t1 = 0;  ///< host<->device transfer
  double t2 = 0;  ///< hostUpdate (DRAM-bound)
  /// End-to-end time given `streams` (§4.5: no overlap / partial / full).
  double total(int streams) const;
  /// Pipeline fill/drain: the phase time the s-stream overlap hides in
  /// steady state, which the first and last chunks still pay serially.
  /// A chunked operation charges one chunk's share of it on top of total.
  double fill_drain(int streams) const { return t0 + t1 + t2 - total(streams); }
};

/// Phase costs for C(m x n) ⊕= A(m x k) ⊗ B(k x n) through the offload
/// pipeline on one GPU.
OogCost model_oog_cost(const MachineConfig& m, double mm, double nn,
                       double kk);

/// Eq. (5): minimum block size k for ooGSrGemm to run at the GPU's
/// compute rate: k ≥ max(t_hd/(2 t_f), 3 t_m/(2 t_f)).
double min_offload_block(const MachineConfig& m);

/// Sustained flop rate of ooGSrGemm for square chunk size mx and panel
/// width k on an n x n problem, including pipeline fill/drain.
double model_oog_rate(const MachineConfig& m, double n, double mx, double k,
                      int streams);

// --- per-op pricing -------------------------------------------------------

/// One FW run as the schedule pricers see it.
struct FwProblem {
  double n = 0;          ///< vertices
  double b = 768;        ///< block size
  sched::Variant variant = sched::Variant::kAsync;
  /// ooGSrGemm chunk size for the offload variant (m_x = n_x).
  double offload_mx = 4096;
  /// ooGSrGemm X-buffer depth s (§4.5): 1 = serial chunk pipeline,
  /// 2 = compute/transfer overlap, 3 = also overlap hostUpdate; mirrors
  /// offload::OogConfig::num_streams. Only affects kOffload.
  int offload_streams = 3;
  /// DES only: ring-broadcast segments are relayed by per-rank NIC
  /// "agent" processes, so a rank busy computing does not stall the chain
  /// (§3.3's asynchrony). Only affects kAsync.
  bool background_relays = true;
  /// DES only, straggler model: each compute op's duration is inflated by
  /// a deterministic factor in [1, 1 + comp_jitter] hashed from rank and
  /// op index (the straggler ablation bench measures §3.3's decoupling).
  double comp_jitter = 0.0;
  /// DES only: zero every compute duration to isolate the communication
  /// schedule (the regime of the paper's Figure 3 placement sweep).
  bool comm_only = false;
};

/// Modelled duration of one schedule op on the rank at `coord`: the one
/// price the DES lowering (perf/schedule.hpp) and the run monitor share.
/// Compute ops cost device seconds — flops over the full-GPU SRGEMM rate
/// (the DES serialises ranks sharing a GPU), or the §4.5 ooGSrGemm
/// pipeline over the rank's strip for an offloaded OuterUpdate. Comm ops
/// cost a first-order log-depth tree or (members-1)-hop ring; the DES
/// simulates them with contention instead.
double op_cost(const sched::Op& op, dist::GridCoord coord,
               const MachineConfig& m, const FwProblem& prob,
               const GridShape& g);

}  // namespace parfw::perf
