#include "perf/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"

namespace parfw::perf {

double fw_flops(double n) { return 2.0 * n * n * n; }

double model_compute_time(const MachineConfig& m, double n, int ranks) {
  const double rank_rate = m.srgemm_flops / m.ranks_per_gpu;
  return fw_flops(n) / (static_cast<double>(ranks) * rank_rate);
}

double model_node_volume(const MachineConfig& m, double n, const GridShape& g) {
  const double kr = std::max(1, g.kr());
  const double kc = std::max(1, g.kc());
  // Per node and per run, the row panels a node must receive span its
  // columns (n/K_c wide) in the (1 - 1/K_r) of iterations where the panel
  // row lives on another node; symmetrically for column panels. This is
  // the exact form of the paper's §3.4.1 bound n²(Q_r/P_r + Q_c/P_c),
  // which it approaches for large K_r, K_c.
  const double words =
      n * n * ((1.0 - 1.0 / kr) / kc + (1.0 - 1.0 / kc) / kr);
  return words * m.word_bytes;
}

double min_node_volume(const MachineConfig& m, double n, int nodes) {
  PARFW_CHECK(nodes >= 1);
  double best = -1.0;
  for (int kr = 1; kr <= nodes; ++kr) {
    if (nodes % kr != 0) continue;
    GridShape g;
    g.pr = kr;
    g.pc = nodes / kr;
    g.qr = g.qc = 1;
    const double v = model_node_volume(m, n, g);
    if (best < 0 || v < best) best = v;
  }
  return best;
}

double effective_bandwidth(const MachineConfig& m, double n, int nodes,
                           double t_fw) {
  // For a single node every transfer is intranode; the paper still reports
  // the volume over time (which is why the 1-node point exceeds the NIC
  // limit in Figure 3). We use the 2-node-equivalent volume there.
  double w_min = min_node_volume(m, n, nodes);
  if (nodes == 1) w_min = 2.0 * n * n * m.word_bytes;
  return w_min / t_fw;
}

double compute_bound_threshold(const MachineConfig& m, int nodes) {
  // Compute time scales as n³, NIC time as n²: equality at
  //   2n³/(P·f) = 2n²·word/(√K·nic_bw)  =>  n = P·f·word/(√K·nic_bw)
  const double ranks = static_cast<double>(nodes) * m.ranks_per_node();
  const double k_sqrt = std::sqrt(static_cast<double>(nodes));
  const double rank_rate = m.srgemm_flops / m.ranks_per_gpu;
  return ranks * rank_rate * m.word_bytes / (k_sqrt * m.nic_bw);
}

double max_in_gpu_vertices(const MachineConfig& m, int nodes) {
  const double aggregate =
      static_cast<double>(nodes) * m.gpus_per_node * m.gpu_mem_bytes;
  return std::sqrt(aggregate * m.gpu_mem_usable_frac / m.word_bytes);
}

double OogCost::total(int streams) const {
  if (streams <= 1) return t0 + t1 + t2;
  if (streams == 2) {
    // Overlap the best pair (§4.5: min over pairings of max{ti, tj+tk}).
    const double a = std::max(t0, t1 + t2);
    const double b = std::max(t1, t0 + t2);
    const double c = std::max(t2, t0 + t1);
    return std::min({a, b, c});
  }
  return std::max({t0, t1, t2});
}

OogCost model_oog_cost(const MachineConfig& m, double mm, double nn,
                       double kk) {
  OogCost c;
  c.t0 = 2.0 * mm * nn * kk / m.srgemm_flops;
  c.t1 = (mm * nn + (mm + nn) * kk) * m.word_bytes / m.hd_bw;
  c.t2 = 3.0 * mm * nn * m.word_bytes / m.dram_bw;
  return c;
}

double min_offload_block(const MachineConfig& m) {
  const double tf = 1.0 / m.srgemm_flops;
  const double thd = m.word_bytes / m.hd_bw;  // per word moved
  const double tm = m.word_bytes / m.dram_bw;
  return std::max(thd / (2.0 * tf), 3.0 * tm / (2.0 * tf));
}

double model_oog_rate(const MachineConfig& m, double n, double mx, double k,
                      int streams) {
  PARFW_CHECK(mx > 0 && k > 0 && n >= mx);
  // Whole-operation phase totals. The A_i/B_j panels are uploaded once
  // and reused across the chunk row/column (§4.4), so their volume is
  // amortised over all chunks rather than charged per chunk.
  const OogCost whole = model_oog_cost(m, n, n, k);
  const double steady = whole.total(streams);
  // One chunk's share of the fill/drain is what penalises large chunks on
  // small operands (Figure 6's bottom-right corner).
  const double chunks = (n / mx) * (n / mx);
  const double time = steady + whole.fill_drain(streams) / chunks;
  return 2.0 * n * n * k / time;
}

double op_cost(const sched::Op& op, dist::GridCoord coord,
               const MachineConfig& m, const FwProblem& prob,
               const GridShape& g) {
  if (sched::is_comm(op.kind)) {
    // Scope: the diag block crosses the owner's process row (pc members)
    // and column (pr); the row panel travels down the columns (pr), the
    // col panel across the rows (pc).
    const int members = op.kind == sched::OpKind::kDiagBcastRow ||
                                op.kind == sched::OpKind::kColPanelBcast
                            ? g.pc
                            : g.pr;
    if (members < 2) return 0.0;
    const double transfer = static_cast<double>(op.bytes) / m.nic_bw;
    return op.coll == sched::CollKind::kRing
               ? (members - 1) * m.wire_latency + transfer
               : std::ceil(std::log2(members)) * (m.wire_latency + transfer);
  }
  if (!op.offload) return op.flops / m.srgemm_flops;

  // Offloaded OuterUpdate: the IR's flop count does not model the
  // streaming pipeline, so the rank's whole strip is priced with §4.5 —
  // chunked through the device, hostUpdate at the contended per-rank DRAM
  // share, the panels uploaded once (§4.4).
  const double b = prob.b;
  const std::size_t nb = static_cast<std::size_t>(prob.n / prob.b);
  const double mloc =
      static_cast<double>(dist::owned_blocks(nb, coord.row, g.pr)) * b;
  const double nloc =
      static_cast<double>(dist::owned_blocks(nb, coord.col, g.pc)) * b;
  MachineConfig shared = m;
  shared.dram_bw = m.dram_bw_shared;
  const double mx = std::min(prob.offload_mx, std::max(mloc, 1.0));
  const double nx = std::min(prob.offload_mx, std::max(nloc, 1.0));
  const int s = std::clamp(prob.offload_streams, 1, 3);
  const OogCost whole = model_oog_cost(shared, mloc, nloc, b);
  const double chunk_frac = (mx * nx) / (mloc * nloc);
  return whole.total(s) + whole.fill_drain(s) * chunk_frac;
}

}  // namespace parfw::perf
