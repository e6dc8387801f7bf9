// Machine description for the performance models and the discrete-event
// simulator (DESIGN.md §1: the Summit-scale substitute).
//
// Numbers for Summit come from the paper's §5.1.1 plus public system
// documentation; anything calibrated rather than published is marked.
#pragma once

namespace parfw::perf {

struct MachineConfig {
  // --- compute -----------------------------------------------------------
  /// SRGEMM rate per GPU in flop/s (paper §4.1: 6.8 TF/s single precision
  /// on V100; peak without FMA is 7.85 TF/s).
  double srgemm_flops = 6.8e12;
  /// Peak no-FMA rate per GPU (used for "percent of peak" reporting).
  double srgemm_peak_flops = 7.85e12;
  /// Scalar (non-SRGEMM) FW rate per rank for a CPU-side DiagUpdate.
  double scalar_flops = 8e9;
  int gpus_per_node = 6;
  int ranks_per_gpu = 2;  ///< the paper runs 2 MPI ranks per GPU (§5.3.1)

  // --- network -----------------------------------------------------------
  /// Per-node injection bandwidth, bytes/s each direction (§5.1.1: 25 GB/s).
  double nic_bw = 25e9;
  /// Rank-to-rank bandwidth inside a node (NVLink/X-bus path), bytes/s.
  double intranode_bw = 75e9;
  double wire_latency = 1.5e-6;       ///< internode one-way latency, s
  double intranode_latency = 0.3e-6;  ///< on-node message latency, s

  // --- host-device -------------------------------------------------------
  /// Host<->GPU link per GPU, bytes/s each direction (NVLink-2: the paper
  /// assumes 50 GB/s effective in §5.3.1).
  double hd_bw = 50e9;
  /// CPU-DRAM bandwidth for a hostUpdate stream that owns a socket (the
  /// single-GPU microbenchmark regime, Figures 5-6).
  double dram_bw = 135e9;
  /// Per-rank DRAM + host-link share in the distributed offload run,
  /// where 12 ranks contend for two sockets. CALIBRATED so the tuned
  /// Me-ParallelFw lands at 70-80% of Co-ParallelFw (paper §5.4 says 80%;
  /// see EXPERIMENTS.md for the residual gap discussion).
  double dram_bw_shared = 45e9;

  // --- memory ------------------------------------------------------------
  double gpu_mem_bytes = 16e9;    ///< HBM2 per V100
  /// Fraction of aggregate GPU memory usable for the local distance matrix
  /// (the rest goes to panels, broadcast buffers, CUTLASS workspace, and
  /// the 2-ranks-per-GPU duplication). CALIBRATED so the largest feasible
  /// in-GPU problem on 64 nodes is the paper's observed 524,288 vertices.
  double gpu_mem_usable_frac = 0.18;

  int word_bytes = 4;  ///< single precision throughout (as in the paper)

  /// Network-noise model for the DES: each internode transfer's duration
  /// is inflated by a deterministic pseudo-random factor in
  /// [1, 1 + net_jitter] (congestion / slow links, §3.3's scenario).
  double net_jitter = 0.0;

  int ranks_per_node() const { return gpus_per_node * ranks_per_gpu; }

  /// ORNL Summit (the paper's testbed).
  static MachineConfig summit();
};

}  // namespace parfw::perf
