// Performance-model and DES tests: closed forms, feasibility walls,
// simulator sanity (ordering of variants, scaling trends, agreement with
// the analytic model in limiting regimes).
#include <gtest/gtest.h>

#include "perf/cost_model.hpp"
#include "perf/des.hpp"
#include "perf/experiments.hpp"
#include "perf/machine.hpp"
#include "perf/schedule.hpp"

namespace parfw::perf {
namespace {

const MachineConfig kSummit = MachineConfig::summit();

TEST(CostModel, FwFlops) { EXPECT_DOUBLE_EQ(fw_flops(100), 2e6); }

TEST(CostModel, ComputeTimeScalesInversely) {
  const double t1 = model_compute_time(kSummit, 1e5, 192);
  const double t2 = model_compute_time(kSummit, 1e5, 384);
  EXPECT_NEAR(t1 / t2, 2.0, 1e-9);
}

TEST(CostModel, NodeVolumeSquareBeatsSkewed) {
  GridShape square{24, 32, 3, 4};   // K = 8x8
  GridShape skewed{8, 96, 1, 12};   // K = 8x8 nodes but 1x12 intranode -> K=8x8? qr=1,qc=12: kr=8,kc=8
  // Same node count; make the skew at the NODE grid instead:
  GridShape skewed_nodes{4, 192, 2, 6};  // kr=2, kc=32
  const double v_sq = model_node_volume(kSummit, 196608, square);
  const double v_sk = model_node_volume(kSummit, 196608, skewed_nodes);
  EXPECT_LT(v_sq, v_sk);
}

TEST(CostModel, MinNodeVolumeIsSquareFactorisation) {
  const double n = 196608;
  const double v64 = min_node_volume(kSummit, n, 64);
  GridShape sq{8, 8, 1, 1};
  EXPECT_DOUBLE_EQ(v64, model_node_volume(kSummit, n, sq));
  // Volume shrinks with more nodes.
  EXPECT_LT(v64, min_node_volume(kSummit, n, 16));
}

TEST(CostModel, ComputeBoundThresholdNear120kOn64Nodes) {
  // Paper §5.2.2: "on 64 nodes, 120k is the theoretical estimate of the
  // smallest problem size when FW becomes compute-bound".
  // Our overlap-aware model puts the crossover somewhat below the
  // paper's rough estimate; same order of magnitude.
  const double n = compute_bound_threshold(kSummit, 64);
  EXPECT_GT(n, 3e4);
  EXPECT_LT(n, 2.2e5);
}

TEST(CostModel, GpuMemoryWallNear524kOn64Nodes) {
  // Paper §5.4: every non-offload variant dies beyond 524,288 vertices on
  // 64 nodes (the calibration target for gpu_mem_usable_frac).
  const double wall = max_in_gpu_vertices(kSummit, 64);
  EXPECT_GT(wall, 450e3);
  EXPECT_LT(wall, 700e3);
}

TEST(CostModel, Eq5MinimumBlockNear624) {
  // Paper §5.3.1: predicted minimum block size ≈ 624 for NVLink at
  // 50 GB/s and 7.8 TF/s. Our defaults use the measured 6.8 TF/s rate,
  // so the bound lands slightly lower but in the same regime.
  MachineConfig m = kSummit;
  m.srgemm_flops = 7.8e12;
  const double k = min_offload_block(m);
  EXPECT_GT(k, 200.0);
  EXPECT_LT(k, 700.0);
}

TEST(CostModel, OogCostOverlapRegimes) {
  const OogCost c{3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(c.total(1), 6.0);
  EXPECT_DOUBLE_EQ(c.total(2), 3.0);  // max(t0, t1+t2) = 3
  EXPECT_DOUBLE_EQ(c.total(3), 3.0);  // max of all
  const OogCost d{1.0, 2.0, 1.5};
  EXPECT_DOUBLE_EQ(d.total(3), 2.0);
  EXPECT_LE(d.total(3), d.total(2));
  EXPECT_LE(d.total(2), d.total(1));
}

TEST(CostModel, OogRateApproachesPeakForLargeBlocks) {
  // Figure 5's shape: small blocks transfer-bound, large blocks near peak.
  const double r128 = model_oog_rate(kSummit, 32768, 2048, 128, 3);
  const double r768 = model_oog_rate(kSummit, 32768, 2048, 768, 3);
  EXPECT_LT(r128, 0.75 * kSummit.srgemm_flops);
  EXPECT_GT(r768, 0.9 * kSummit.srgemm_flops);
  EXPECT_LT(r768, kSummit.srgemm_flops * 1.0001);
}

// --- DES -------------------------------------------------------------------

TEST(Des, SingleRankComputeOnly) {
  std::vector<RankProgram> prog(1);
  prog[0].push_back(Op{Op::Kind::kComp, 2.5, -1, 0, 0});
  prog[0].push_back(Op{Op::Kind::kComp, 1.5, -1, 0, 0});
  const SimStats s = simulate(prog, {0}, kSummit);
  EXPECT_DOUBLE_EQ(s.makespan, 4.0);
  EXPECT_EQ(s.ops_executed, 2u);
}

TEST(Des, GpuSharingSerialises) {
  // Two ranks on one GPU: their compute serialises; on two GPUs it doesn't.
  MachineConfig m = kSummit;
  m.ranks_per_gpu = 2;
  std::vector<RankProgram> prog(2);
  prog[0].push_back(Op{Op::Kind::kComp, 1.0, -1, 0, 0});
  prog[1].push_back(Op{Op::Kind::kComp, 1.0, -1, 0, 0});
  EXPECT_DOUBLE_EQ(simulate(prog, {0, 0}, m).makespan, 2.0);
  m.ranks_per_gpu = 1;
  EXPECT_DOUBLE_EQ(simulate(prog, {0, 0}, m).makespan, 1.0);
}

TEST(Des, MessageLatencyAndBandwidth) {
  MachineConfig m = kSummit;
  std::vector<RankProgram> prog(2);
  const std::int64_t bytes = 250'000'000;  // 10 ms at 25 GB/s
  prog[0].push_back(Op{Op::Kind::kSend, 0, 1, bytes, 7});
  prog[1].push_back(Op{Op::Kind::kRecv, 0, 0, 0, 7});
  const SimStats s = simulate(prog, {0, 1}, m);  // internode
  EXPECT_NEAR(s.makespan, 0.01 + m.wire_latency, 1e-6);
  EXPECT_DOUBLE_EQ(s.internode_bytes, static_cast<double>(bytes));

  const SimStats intra = simulate(prog, {0, 0}, m);  // same node
  EXPECT_NEAR(intra.makespan, bytes / m.intranode_bw + m.intranode_latency,
              1e-6);
  EXPECT_DOUBLE_EQ(intra.internode_bytes, 0.0);
}

TEST(Des, RecvBeforeSendBlocksThenCompletes) {
  std::vector<RankProgram> prog(2);
  prog[0].push_back(Op{Op::Kind::kRecv, 0, 1, 0, 3});
  prog[1].push_back(Op{Op::Kind::kComp, 5.0, -1, 0, 0});
  prog[1].push_back(Op{Op::Kind::kSend, 0, 0, 1000, 3});
  const SimStats s = simulate(prog, {0, 1}, kSummit);
  EXPECT_GT(s.makespan, 5.0);
}

TEST(Des, DeadlockDetected) {
  std::vector<RankProgram> prog(2);
  prog[0].push_back(Op{Op::Kind::kRecv, 0, 1, 0, 1});
  prog[1].push_back(Op{Op::Kind::kRecv, 0, 0, 0, 2});
  EXPECT_THROW(simulate(prog, {0, 1}, kSummit), check_error);
}

TEST(Des, NicContentionSerialisesEgress) {
  // Two ranks on node 0 each send 10ms worth of data to node 1: the
  // shared egress NIC must serialise them (~20 ms total).
  MachineConfig m = kSummit;
  std::vector<RankProgram> prog(4);
  const std::int64_t bytes = 250'000'000;
  prog[0].push_back(Op{Op::Kind::kSend, 0, 2, bytes, 1});
  prog[1].push_back(Op{Op::Kind::kSend, 0, 3, bytes, 2});
  prog[2].push_back(Op{Op::Kind::kRecv, 0, 0, 0, 1});
  prog[3].push_back(Op{Op::Kind::kRecv, 0, 1, 0, 2});
  const SimStats s = simulate(prog, {0, 0, 1, 1}, m);
  EXPECT_GT(s.makespan, 0.019);
}

// --- Experiment drivers -------------------------------------------------------

TEST(Experiments, BalancedFactors) {
  EXPECT_EQ(balanced_factors(64), (std::pair<int, int>{8, 8}));
  EXPECT_EQ(balanced_factors(12), (std::pair<int, int>{3, 4}));
  EXPECT_EQ(balanced_factors(7), (std::pair<int, int>{1, 7}));
  EXPECT_EQ(balanced_factors(1), (std::pair<int, int>{1, 1}));
}

TEST(Experiments, LegendsMatchPaper) {
  const auto legends = paper_legends();
  ASSERT_EQ(legends.size(), 5u);
  EXPECT_EQ(legends[0].name, "baseline");
  EXPECT_EQ(legends[3].name, "+async");
  EXPECT_TRUE(legends[3].reordered);
  EXPECT_FALSE(legends[0].reordered);
}

TEST(Experiments, VariantOrderingAtScale) {
  // On 64 nodes at a communication-sensitive size, each optimisation must
  // help: baseline >= pipelined >= +reordering >= +async (time).
  const auto legends = paper_legends();
  const double n = 131072, b = 768;
  double prev = 1e30;
  for (std::size_t i = 0; i < 4; ++i) {
    const RunPoint p = simulate_fw(kSummit, legends[i], 64, n, b);
    EXPECT_LE(p.seconds, prev * 1.02)
        << legends[i].name << " slower than its predecessor";
    prev = p.seconds;
  }
}

TEST(Experiments, AsyncNearComputeBoundAtLargeN) {
  // Large problems are compute-bound: the optimised variant must land
  // close to the pure-compute floor, baseline further away.
  const Legend async = paper_legends()[3];
  const double n = 524288, b = 768;
  const RunPoint p = simulate_fw(kSummit, async, 64, n, b);
  const double floor_t = model_compute_time(kSummit, n, 64 * 12);
  EXPECT_GT(p.seconds, floor_t * 0.99);
  EXPECT_LT(p.seconds, floor_t * 1.35);
}

TEST(Experiments, StrongScalingSpeedsUp) {
  const Legend async = paper_legends()[3];
  const double n = 300000, b = 768;
  const RunPoint p16 = simulate_fw(kSummit, async, 16, n, b);
  const RunPoint p64 = simulate_fw(kSummit, async, 64, n, b);
  const RunPoint p256 = simulate_fw(kSummit, async, 256, n, b);
  EXPECT_LT(p64.seconds, p16.seconds);
  EXPECT_LT(p256.seconds, p64.seconds);
  // Parallel efficiency at 256 nodes should be meaningful (paper: ~45-80%).
  const double eff = (p16.seconds / p256.seconds) / 16.0;
  EXPECT_GT(eff, 0.3);
}

TEST(Experiments, OffloadCloseToInGpuVariant) {
  // Paper §5.4: well-tuned Me-ParallelFw reaches ~80% of Co-ParallelFw.
  const double n = 300000, b = 768;
  const RunPoint off = simulate_fw(kSummit, paper_legends()[4], 64, n, b);
  const RunPoint async = simulate_fw(kSummit, paper_legends()[3], 64, n, b);
  EXPECT_GT(async.pflops / off.pflops, 1.0);
  EXPECT_LT(async.pflops / off.pflops, 2.0);
}

TEST(Experiments, BackgroundRelaysNeverSlowTheSchedule) {
  // With NIC-agent relays the ring's forwarding no longer sits in the
  // ranks' programs: the async makespan must be <= the host-driven one.
  const Legend async = paper_legends()[3];
  const GridSetup setup = make_grid(kSummit, 16, async.reordered);
  FwProblem prob;
  prob.variant = async.variant;
  prob.n = 98304;
  prob.b = 768;
  prob.background_relays = true;
  const BuiltProgram bg = build_fw_program(kSummit, prob, setup.grid, setup.node_of);
  prob.background_relays = false;
  const BuiltProgram fg = build_fw_program(kSummit, prob, setup.grid, setup.node_of);
  const double t_bg = simulate(bg.programs, bg.node_of, kSummit).makespan;
  const double t_fg = simulate(fg.programs, fg.node_of, kSummit).makespan;
  EXPECT_LE(t_bg, t_fg * 1.001);
  // Agents triple the process count but move identical internode volume.
  EXPECT_EQ(bg.programs.size(), 3 * fg.programs.size());
  const double v_bg = simulate(bg.programs, bg.node_of, kSummit).internode_bytes;
  const double v_fg = simulate(fg.programs, fg.node_of, kSummit).internode_bytes;
  EXPECT_NEAR(v_bg, v_fg, 0.01 * v_fg);
}

TEST(Experiments, BackgroundRelaysAbsorbNetworkJitter) {
  // §3.3: link noise must not propagate into the async schedule.
  const Legend async = paper_legends()[3];
  const Legend base = paper_legends()[0];
  const double n = 98304, b = 768;
  auto run = [&](const Legend& l, double jitter) {
    MachineConfig m = kSummit;
    m.net_jitter = jitter;
    const GridSetup setup = make_grid(m, 16, l.reordered);
    FwProblem prob;
    prob.variant = l.variant;
    prob.n = n;
    prob.b = b;
    const BuiltProgram built = build_fw_program(m, prob, setup.grid, setup.node_of);
    return simulate(built.programs, built.node_of, m).makespan;
  };
  const double async_added = run(async, 1.0) - run(async, 0.0);
  const double base_added = run(base, 1.0) - run(base, 0.0);
  EXPECT_LT(async_added, 0.25 * base_added);
}

TEST(Des, NetworkJitterInflatesTransfers) {
  MachineConfig m = kSummit;
  m.net_jitter = 1.0;
  std::vector<RankProgram> prog(2);
  const std::int64_t bytes = 250'000'000;
  prog[0].push_back(Op{Op::Kind::kSend, 0, 1, bytes, 7});
  prog[1].push_back(Op{Op::Kind::kRecv, 0, 0, 0, 7});
  const double noisy = simulate(prog, {0, 1}, m).makespan;
  m.net_jitter = 0.0;
  const double clean = simulate(prog, {0, 1}, m).makespan;
  EXPECT_GT(noisy, clean);
  EXPECT_LT(noisy, clean * 2.1);
}

TEST(Experiments, BcastProgramsRingVsTree) {
  // Ring total volume equals tree volume, but the ring pipelines: for a
  // large payload over many ranks the ring must finish sooner.
  MachineConfig m = kSummit;
  std::vector<int> node_of(16);
  for (int i = 0; i < 16; ++i) node_of[static_cast<std::size_t>(i)] = i;  // one rank per node
  const std::int64_t bytes = 64 << 20;
  const auto tree = build_bcast_program(16, bytes, false, node_of);
  const auto ring = build_bcast_program(16, bytes, true, node_of);
  const double t_tree = simulate(tree, node_of, m).makespan;
  const double t_ring = simulate(ring, node_of, m).makespan;
  EXPECT_LT(t_ring, t_tree);
}

}  // namespace
}  // namespace parfw::perf
