// Tests for the run monitor + incident layer (src/monitor/,
// DESIGN.md §4.14): deterministic progress/ETA from event timestamps,
// anomaly triggers, and the end-to-end flight-recorder incident path —
// an injected straggler must produce exactly ONE incident dump whose
// window loads through the causal layer and blames the slow rank.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "causal/graph.hpp"
#include "causal/trace_io.hpp"
#include "core/diag_update.hpp"
#include "dist/driver.hpp"
#include "dist/parallel_fw.hpp"
#include "monitor/incident.hpp"
#include "monitor/monitor.hpp"
#include "perf/machine.hpp"
#include "perf/schedule.hpp"
#include "sched/ir.hpp"
#include "sched/trace.hpp"

namespace parfw {
namespace {

using sched::OpKind;
using sched::Variant;

/// The schedule perf::build_fw_program lowers for the same problem.
sched::Schedule make_schedule(Variant v, const dist::GridSpec& grid,
                              std::size_t nb, std::size_t b) {
  sched::ScheduleParams sp;
  sp.variant = v;
  sp.nb = nb;
  sp.b = b;
  sp.word_bytes = sizeof(float);
  sp.diag_flops = diag_update_flops(b, DiagStrategy::kLogSquaring);
  return sched::build_schedule(grid, sp);
}

/// Replay a schedule into a monitor as synthetic trace events with FIXED
/// timestamps (a deterministic function of the step index) — no clocks.
void replay_schedule(const sched::Schedule& s, monitor::RunMonitor& mon) {
  mon.on_schedule(s);
  double t = 0.0;
  for (const sched::Step& st : s.steps) {
    sched::TraceEvent e;
    e.rank = st.rank;
    e.name = sched::op_name(st.op.kind);
    e.k = static_cast<std::uint32_t>(st.op.k);
    e.t_begin = t;
    t += 0.001 + 0.0001 * (st.rank + 1);  // rank-dependent, reproducible
    e.t_end = t;
    e.bytes = st.op.bytes;
    e.flops = st.op.flops;
    mon.record(e);
  }
}

TEST(Monitor, EtaDeterministicUnderIdenticalEventStreams) {
  const auto grid = dist::GridSpec::row_major(2, 2);
  const sched::Schedule s = make_schedule(Variant::kAsync, grid, 4, 16);

  monitor::MonitorConfig cfg;
  cfg.progress_interval_s = 0.0;  // sample at every op event
  monitor::RunMonitor a(cfg), b(cfg);
  replay_schedule(s, a);
  replay_schedule(s, b);

  const auto ha = a.history(), hb = b.history();
  ASSERT_FALSE(ha.empty());
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].t, hb[i].t);
    EXPECT_EQ(ha[i].progress, hb[i].progress);
    EXPECT_EQ(ha[i].eta_s, hb[i].eta_s);
    EXPECT_EQ(ha[i].slowdown, hb[i].slowdown);
    EXPECT_EQ(ha[i].skew, hb[i].skew);
    EXPECT_EQ(ha[i].ops_done, hb[i].ops_done);
  }
  // The full replay ends at 100% with nothing left to predict.
  const auto done = a.progress();
  EXPECT_DOUBLE_EQ(done.progress, 1.0);
  EXPECT_DOUBLE_EQ(done.eta_s, 0.0);
  EXPECT_EQ(done.ops_done, done.ops_total);
  EXPECT_EQ(a.format_summary(), b.format_summary());
}

TEST(Monitor, ProgressAdvancesMonotonically) {
  const auto grid = dist::GridSpec::row_major(2, 2);
  const sched::Schedule s = make_schedule(Variant::kBaseline, grid, 3, 8);
  monitor::MonitorConfig cfg;
  cfg.progress_interval_s = 0.0;
  monitor::RunMonitor mon(cfg);
  replay_schedule(s, mon);
  const auto h = mon.history();
  ASSERT_GT(h.size(), 1u);
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_GE(h[i].progress, h[i - 1].progress);
    EXPECT_GE(h[i].ops_done, h[i - 1].ops_done);
  }
}

// One price per schedule op: after replaying a rank's whole program, the
// monitor's predicted seconds per compute-op kind are exactly the compute
// seconds the DES lowering charges that rank. nb = 11 divides neither grid
// dimension, so ranks own unequal strips and the offload pipeline's price
// depends on each rank's coordinate; the tiled grid maps world ranks to
// coordinates differently from row-major.
TEST(Monitor, PredictedComputeSecondsEqualDesLowering) {
  const perf::MachineConfig m = perf::MachineConfig::summit();
  const std::size_t nb = 11, b = 1024;
  const dist::GridSpec grids[] = {dist::GridSpec::row_major(2, 2),
                                  dist::GridSpec::tiled(2, 1, 1, 3)};
  for (const dist::GridSpec& grid : grids)
    for (Variant v : {Variant::kBaseline, Variant::kAsync, Variant::kOffload}) {
      SCOPED_TRACE(std::string(sched::variant_name(v)) + " " +
                   std::to_string(grid.rows()) + "x" +
                   std::to_string(grid.cols()));
      perf::FwProblem prob;
      prob.n = static_cast<double>(nb * b);
      prob.b = static_cast<double>(b);
      prob.variant = v;
      std::vector<int> node_of;
      for (int w = 0; w < grid.size(); ++w)
        node_of.push_back(w / (grid.qr() * grid.qc()));
      const perf::BuiltProgram des =
          perf::build_fw_program(m, prob, grid, node_of);
      const sched::Schedule s = make_schedule(v, grid, nb, b);

      for (int w = 0; w < grid.size(); ++w) {
        std::map<std::string, double> des_secs;
        for (const perf::Op& op : des.programs[static_cast<std::size_t>(w)])
          if (op.kind == perf::Op::Kind::kComp)
            des_secs[sched::op_name(static_cast<OpKind>(op.kind_src))] +=
                op.seconds;

        monitor::MonitorConfig cfg;
        cfg.machine = m;
        monitor::RunMonitor mon(cfg);
        mon.on_schedule(s);
        double t = 0.0;
        std::map<std::string, double> mon_secs;
        for (const sched::Op& op : s.rank_program(w)) {
          if (sched::is_comp(op.kind)) mon_secs[sched::op_name(op.kind)];
          sched::TraceEvent e;
          e.rank = w;
          e.name = sched::op_name(op.kind);
          e.k = op.k;
          e.t_begin = t;
          e.t_end = t += 0.001;
          mon.record(e);
        }
        const auto drift = mon.drift();
        for (auto& [name, secs] : mon_secs) secs = drift.at(name).pred;
        EXPECT_EQ(mon_secs, des_secs) << "rank " << w;
      }
    }
}

TEST(Incidents, CooldownAndCapSuppressRepeatFires) {
  monitor::IncidentConfig cfg;
  cfg.cooldown_s = 10.0;
  cfg.max_incidents = 2;
  monitor::IncidentLog log(cfg);
  EXPECT_TRUE(log.fire("op_overrun", 0.0, 1, "first"));
  EXPECT_FALSE(log.fire("op_overrun", 5.0, 1, "inside cooldown"));
  EXPECT_TRUE(log.fire("op_overrun", 20.0, 2, "after cooldown"));
  EXPECT_FALSE(log.fire("op_overrun", 100.0, 3, "over the cap"));
  EXPECT_EQ(log.count(), 2u);
  EXPECT_EQ(log.incidents()[1].hint_rank, 2);
}

TEST(Incidents, RetransmitStormFiresOnceOverTheWindow) {
  monitor::IncidentConfig icfg;
  icfg.cooldown_s = 1000.0;
  monitor::IncidentLog log(icfg);
  monitor::MonitorConfig cfg;
  cfg.retransmit_threshold = 4;
  cfg.retransmit_window_s = 1.0;
  monitor::RunMonitor mon(cfg, nullptr, &log);
  for (int i = 0; i < 16; ++i) {
    sched::TraceEvent e;
    e.rank = 2;
    e.name = "retry";
    e.t_begin = e.t_end = 0.01 * i;
    mon.record(e);
  }
  EXPECT_EQ(log.count(), 1u);
  EXPECT_EQ(log.incidents()[0].kind, "retransmit_storm");
  EXPECT_EQ(log.incidents()[0].hint_rank, 2);
}

// The acceptance scenario, in-process: a 2x2 run with rank 3 sleeping
// 60 ms inside every op must produce exactly one incident whose ring
// window round-trips through the causal loader and whose blame lands on
// the injected straggler.
TEST(Incidents, InjectedStragglerFiresOneBlamedDump) {
  using S = MinPlus<float>;
  const std::string prefix = "monitor_test_fr";
  std::remove((prefix + ".incidents.jsonl").c_str());
  std::remove((prefix + ".incident-0.trace.json").c_str());

  sched::RingTraceSink ring;
  monitor::IncidentConfig icfg;
  icfg.path_prefix = prefix;
  monitor::IncidentLog incidents(icfg, &ring);
  monitor::MonitorConfig mcfg;
  mcfg.overrun_factor = 4.0;
  // The floor sits well above an unslowed op even in a sanitizer build
  // (a 24^3 tile there can take 10 ms) and well below the injected delay.
  mcfg.min_overrun_s = 0.030;
  monitor::RunMonitor mon(mcfg, &ring, &incidents);

  const std::size_t n = 96, b = 24;
  const auto grid = dist::GridSpec::row_major(2, 2);
  dist::DistFwOptions opt;
  opt.variant = Variant::kAsync;
  opt.block_size = b;
  opt.trace = &mon;
  opt.schedule_observer = &mon;
  opt.faults.slow_rank = 3;
  opt.faults.slow_op_seconds = 0.060;
  DenseEntryGen<float> gen(17, 0.9, 1.0f, 80.0f, /*integral=*/true);
  dist::run_parallel_fw<S>(n, gen, grid, 2, opt);

  // Exactly one incident (cooldown absorbs every later overrun), blamed
  // on the injected rank by the causal analysis of the window.
  ASSERT_EQ(incidents.count(), 1u);
  const monitor::Incident inc = incidents.incidents()[0];
  EXPECT_EQ(inc.kind, "op_overrun");
  EXPECT_EQ(inc.hint_rank, 3);
  EXPECT_EQ(inc.blamed_rank, 3);
  EXPECT_GT(inc.window_events, 0u);

  // The JSONL report holds exactly that one record.
  std::ifstream jf(incidents.report_path());
  ASSERT_TRUE(jf.good());
  std::string line;
  std::size_t lines = 0;
  std::string first;
  while (std::getline(jf, line))
    if (!line.empty()) {
      if (lines == 0) first = line;
      ++lines;
    }
  EXPECT_EQ(lines, 1u);
  EXPECT_NE(first.find("\"blamed_rank\":3"), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"op_overrun\""), std::string::npos);

  // The dumped window loads through the causal layer and analyses clean.
  ASSERT_FALSE(inc.trace_path.empty());
  const causal::LoadResult lr = causal::load_chrome_trace_file(inc.trace_path);
  ASSERT_TRUE(lr.ok) << lr.error;
  EXPECT_EQ(lr.events.size(), inc.window_events + (inc.ring_dropped > 0));
  causal::BuildStats bstats;
  const causal::Graph g = causal::build_graph(lr.events, &bstats);
  causal::BlameReport report;
  std::string err;
  ASSERT_TRUE(causal::analyze(g, {}, &report, &err)) << err;
  EXPECT_GT(report.span, 0.0);

  std::remove((prefix + ".incidents.jsonl").c_str());
  std::remove(inc.trace_path.c_str());
}

TEST(Monitor, FinishExportsGaugesAndRingDropCount) {
  const auto grid = dist::GridSpec::row_major(2, 2);
  const sched::Schedule s = make_schedule(Variant::kAsync, grid, 3, 8);
  telemetry::Registry reg;
  sched::RingTraceSink ring(/*capacity_bytes=*/sizeof(sched::TraceEvent) * 4);
  monitor::MonitorConfig cfg;
  cfg.metrics = &reg;
  monitor::RunMonitor mon(cfg, &ring);
  replay_schedule(s, mon);
  mon.finish();
  EXPECT_DOUBLE_EQ(reg.gauge("monitor.progress").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("monitor.eta_seconds").value(), 0.0);
  // Far more events than the 4-slot ring holds: drops must be exported.
  EXPECT_GT(reg.gauge("trace.ring.dropped").value(), 0.0);
}

}  // namespace
}  // namespace parfw
