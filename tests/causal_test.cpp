// Tests for the causal trace-analysis layer (src/causal/): happens-before
// graph construction, critical-path extraction, blame attribution, what-if
// re-costing, and the Chrome-trace round trip.
//
// The headline suites are the ISSUE acceptance checks:
//   * DesCriticalPath — for every variant x placement, the critical-path
//     length extracted from a DES trace equals the DES makespan EXACTLY
//     (the path segments partition [t_min, t_max] by construction).
//   * FaultMatrix — the graph stays acyclic and every recv joins a send
//     under drop/dup/delay fault injection on a real mpisim run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "causal/analysis.hpp"
#include "causal/graph.hpp"
#include "causal/trace_io.hpp"
#include "core/checkpoint_store.hpp"
#include "dist/driver.hpp"
#include "dist/parallel_fw.hpp"
#include "perf/experiments.hpp"
#include "perf/machine.hpp"
#include "sched/trace.hpp"
#include "telemetry/metrics.hpp"

namespace parfw {
namespace {

using causal::BlameReport;
using causal::BuildStats;
using causal::Category;
using causal::Graph;
using sched::EventKind;
using sched::TraceEvent;
using sched::Variant;

TraceEvent span(int rank, const char* name, double t0, double t1) {
  TraceEvent e;
  e.rank = rank;
  e.name = name;
  e.t_begin = t0;
  e.t_end = t1;
  return e;
}

TraceEvent send_at(int rank, int peer, double t, std::int32_t tag,
                   std::uint64_t seq, std::uint64_t ctx) {
  TraceEvent e = span(rank, "msg", t, t);
  e.ek = EventKind::kSend;
  e.peer = peer;
  e.tag = tag;
  e.seq = seq;
  e.ctx = ctx;
  return e;
}

TraceEvent recv_span(int rank, int peer, double t0, double t1,
                     std::int32_t tag, std::uint64_t seq, std::uint64_t ctx,
                     std::uint32_t attempt = 0) {
  TraceEvent e = span(rank, "recv", t0, t1);
  e.ek = EventKind::kRecv;
  e.peer = peer;
  e.tag = tag;
  e.seq = seq;
  e.ctx = ctx;
  e.attempt = attempt;
  return e;
}

double category_sum(const BlameReport& r) {
  double s = 0.0;
  for (int c = 0; c < causal::kNumCategories; ++c)
    s += r.by_category[static_cast<std::size_t>(c)];
  return s;
}

// The path must PARTITION [t_min, t_max]: contiguous, ordered segments
// whose sum telescopes to the span. This is the structural property that
// turns the DES cross-check into an exact equality.
void expect_partition(const Graph& g, const BlameReport& r) {
  ASSERT_FALSE(r.path.empty());
  EXPECT_NEAR(r.path.front().t_lo, g.t_min, 1e-12);
  EXPECT_NEAR(r.path.back().t_hi, g.t_max, 1e-12);
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    EXPECT_LE(r.path[i].t_lo, r.path[i].t_hi);
    EXPECT_NEAR(r.path[i].t_hi, r.path[i + 1].t_lo, 1e-12);
  }
  EXPECT_NEAR(category_sum(r), r.span, 1e-9 * std::max(1.0, r.span));
}

// ---------------------------------------------------------------------------
// Synthetic traces: exact blame arithmetic and slack on a hand-built DAG.

// rank0: comp[0,1] then an instant send; rank1: a recv that completes at
// 1.5 then comp[1.5,2.5]; rank2: a short off-path comp. Critical path is
// comp(1s) -> transit(0.5s) -> comp(1s).
std::vector<TraceEvent> crossrank_trace() {
  std::vector<TraceEvent> ev;
  ev.push_back(span(0, "OuterUpdate", 0.0, 1.0));
  ev.push_back(send_at(0, 1, 1.0, 7, 0, 5));
  ev.push_back(recv_span(1, 0, 0.0, 1.5, 7, 0, 5));
  ev.push_back(span(1, "OuterUpdate", 1.5, 2.5));
  ev.push_back(span(2, "OuterUpdate", 0.0, 0.3));
  return ev;
}

TEST(SyntheticPath, ExactBlamePartitionAcrossRanks) {
  BuildStats bs;
  const Graph g = causal::build_graph(crossrank_trace(), &bs);
  EXPECT_EQ(bs.matched_messages, 1u);
  EXPECT_EQ(bs.unmatched_sends, 0u);
  EXPECT_EQ(bs.unmatched_recvs, 0u);

  BlameReport r;
  std::string err;
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  EXPECT_DOUBLE_EQ(r.span, 2.5);
  expect_partition(g, r);
  EXPECT_NEAR(r.category(Category::kCompute), 2.0, 1e-12);
  EXPECT_NEAR(r.category(Category::kComm), 0.5, 1e-12);
  EXPECT_NEAR(r.category(Category::kStall), 0.0, 1e-12);
  EXPECT_NEAR(r.category(Category::kRetransmit), 0.0, 1e-12);

  // Per-rank attribution: one compute second on each side of the handoff;
  // the transit lands on the consumer's rank.
  EXPECT_NEAR(r.by_rank.at(0)[0], 1.0, 1e-12);
  EXPECT_NEAR(r.by_rank.at(1)[0], 1.0, 1e-12);
  EXPECT_NEAR(r.by_rank.at(1)[1], 0.5, 1e-12);

  // Slack: everything on the chain is critical; the rank-2 op could
  // stretch by span - 0.3.
  ASSERT_EQ(r.slack.size(), g.events.size());
  EXPECT_NEAR(r.slack[0], 0.0, 1e-12);
  EXPECT_NEAR(r.slack[2], 0.0, 1e-12);
  EXPECT_NEAR(r.slack[3], 0.0, 1e-12);
  EXPECT_NEAR(r.slack[4], 2.2, 1e-12);

  ASSERT_FALSE(r.top.empty());
  EXPECT_NEAR(r.top[0].on_path_seconds, 1.0, 1e-12);

  const std::string text = causal::format_report(g, r);
  EXPECT_NE(text.find("compute"), std::string::npos);
  std::ostringstream dot;
  causal::write_dot(g, r, dot);
  EXPECT_NE(dot.str().find("digraph"), std::string::npos);
}

TEST(SyntheticPath, RetransmittedTransitBlamesRetransmit) {
  std::vector<TraceEvent> ev;
  ev.push_back(span(0, "OuterUpdate", 0.0, 1.0));
  ev.push_back(send_at(0, 1, 1.0, 7, 0, 5));
  ev.push_back(recv_span(1, 0, 0.0, 1.5, 7, 0, 5, /*attempt=*/2));
  ev.push_back(span(1, "OuterUpdate", 1.5, 2.5));
  BlameReport r;
  std::string err;
  const Graph g = causal::build_graph(std::move(ev));
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  EXPECT_NEAR(r.category(Category::kRetransmit), 0.5, 1e-12);
  EXPECT_NEAR(r.category(Category::kComm), 0.0, 1e-12);
}

TEST(SyntheticPath, RetransmitAnchorsOnEarliestSendAttempt) {
  // A retransmission that raced past the ack fires AFTER the recv already
  // completed. The recv must join the first attempt, not the late one —
  // anchoring on the late send would put a backwards edge into the graph.
  std::vector<TraceEvent> ev;
  ev.push_back(send_at(0, 1, 0.2, 7, 0, 5));
  ev.push_back(recv_span(1, 0, 0.0, 0.6, 7, 0, 5, /*attempt=*/1));
  ev.push_back(send_at(0, 1, 0.9, 7, 0, 5));  // late retransmit, same seq
  BuildStats bs;
  const Graph g = causal::build_graph(std::move(ev), &bs);
  EXPECT_EQ(bs.matched_messages, 1u);
  std::vector<int> order;
  EXPECT_TRUE(causal::topo_order(g, &order));
  for (const causal::Edge& e : g.edges) {
    if (e.type == causal::EdgeType::kMessage) {
      EXPECT_EQ(g.events[static_cast<std::size_t>(g.event_of(e.from))].t_end,
                0.2);
    }
  }
}

TEST(SyntheticPath, CyclicTraceIsRejectedNotMisattributed) {
  // Crossed messages with inconsistent clocks: each rank's recv completes
  // before the peer's send fired. build_graph doesn't assume consistency;
  // analyze must detect the cycle and refuse.
  std::vector<TraceEvent> ev;
  ev.push_back(recv_span(0, 1, 0.0, 0.5, 2, 0, 5));
  ev.push_back(send_at(0, 1, 0.8, 1, 0, 5));
  ev.push_back(recv_span(1, 0, 0.0, 1.0, 1, 0, 5));
  ev.push_back(send_at(1, 0, 1.2, 2, 0, 5));
  const Graph g = causal::build_graph(std::move(ev));
  std::vector<int> order;
  EXPECT_FALSE(causal::topo_order(g, &order));
  BlameReport r;
  std::string err;
  EXPECT_FALSE(causal::analyze(g, {}, &r, &err));
  EXPECT_NE(err.find("cycl"), std::string::npos) << err;
}

TEST(SyntheticPath, CheckpointBarrierJoinsSlowestEntrant) {
  // Two ranks checkpoint iteration 3; rank 1 arrives late. The join makes
  // rank 0's exit wait on rank 1's entry, so the path through rank 0
  // crosses the barrier.
  std::vector<TraceEvent> ev;
  TraceEvent a = span(0, "Checkpoint", 0.1, 1.0);
  a.k = 3;
  TraceEvent b = span(1, "Checkpoint", 0.6, 1.0);
  b.k = 3;
  ev.push_back(a);
  ev.push_back(b);
  BuildStats bs;
  const Graph g = causal::build_graph(std::move(ev), &bs);
  EXPECT_EQ(bs.joins, 1u);
  BlameReport r;
  std::string err;
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  EXPECT_GT(r.category(Category::kCheckpoint), 0.0);
  expect_partition(g, r);
}

TEST(SyntheticPath, WhatIfRecostScalesOnlyTheTargetedCategories) {
  BlameReport r;
  std::string err;
  const Graph g = causal::build_graph(crossrank_trace());
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  // compute 2.0 + comm 0.5: halving comm -> 2.25; halving compute -> 1.5.
  EXPECT_NEAR(causal::recost(r, {2.0, 1.0}), 2.25, 1e-12);
  EXPECT_NEAR(causal::recost(r, {1.0, 2.0}), 1.5, 1e-12);
  EXPECT_NEAR(causal::recost(r, {1.0, 1.0}), r.span, 1e-12);
}

// --- serve traces through the causal layer (DESIGN.md §4.13) -----------------

TEST(ServeTraceBlame, ServeNamesMapToCategoriesAndPhases) {
  auto cat = [](const char* n) {
    TraceEvent e;
    e.name = n;
    return causal::category_of(e);
  };
  auto ph = [](const char* n) {
    TraceEvent e;
    e.name = n;
    return std::string(causal::phase_of(e));
  };
  EXPECT_EQ(cat("serveIO"), Category::kIo);
  EXPECT_EQ(cat("serveRoute"), Category::kComm);
  EXPECT_EQ(cat("serveQuery"), Category::kCompute);
  EXPECT_EQ(cat("serveWalk"), Category::kCompute);
  EXPECT_EQ(cat("serveCache"), Category::kCompute);
  EXPECT_EQ(ph("serveRoute"), "route");
  EXPECT_EQ(ph("serveCache"), "cache");
  EXPECT_EQ(ph("serveIO"), "io");
  EXPECT_EQ(ph("serveWalk"), "walk");
  EXPECT_EQ(ph("serveQuery"), "query");
  EXPECT_STREQ(causal::category_name(Category::kIo), "io");
}

TEST(ServeTraceBlame, IoWhatIfScalesOnlyStoreReads) {
  // A serve-shaped path: route(comm) 1s -> io 1s -> walk(compute) 1s.
  std::vector<TraceEvent> ev;
  ev.push_back(span(0, "serveRoute", 0.0, 1.0));
  ev.push_back(span(0, "serveIO", 1.0, 2.0));
  ev.push_back(span(0, "serveWalk", 2.0, 3.0));
  const Graph g = causal::build_graph(std::move(ev));
  BlameReport r;
  std::string err;
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  EXPECT_NEAR(r.category(Category::kIo), 1.0, 1e-12);
  EXPECT_NEAR(r.by_phase.at("io")[static_cast<std::size_t>(Category::kIo)],
              1.0, 1e-12);
  // Halving the store: 3.0 -> 2.5; io is untouched by comm/compute
  // speedups, which together buy the other two seconds.
  causal::WhatIf wif;
  wif.io_speedup = 2.0;
  EXPECT_NEAR(causal::recost(r, wif), 2.5, 1e-12);
  EXPECT_NEAR(causal::recost(r, {2.0, 2.0}), 2.0, 1e-12);
}

TEST(SyntheticPath, PublishBlameExportsCpSeries) {
  BlameReport r;
  std::string err;
  const Graph g = causal::build_graph(crossrank_trace());
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  telemetry::Registry reg;
  causal::publish_blame(r, reg);
  bool saw_length = false, saw_share = false;
  for (const telemetry::MetricRow& row : reg.snapshot()) {
    if (row.name == "cp.length") {
      saw_length = true;
      EXPECT_DOUBLE_EQ(row.value, r.span);
    }
    if (row.name == "cp.share" && row.labels == "category=compute") {
      saw_share = true;
      EXPECT_NEAR(row.value, 0.8, 1e-12);
    }
  }
  EXPECT_TRUE(saw_length);
  EXPECT_TRUE(saw_share);
}

// ---------------------------------------------------------------------------
// DES acceptance: critical-path length == makespan, exactly, for every
// variant x placement.

constexpr Variant kAllVariants[] = {Variant::kBaseline, Variant::kPipelined,
                                    Variant::kAsync, Variant::kOffload};

class DesCriticalPath
    : public ::testing::TestWithParam<std::tuple<Variant, bool>> {};

TEST_P(DesCriticalPath, LengthEqualsMakespanExactly) {
  const auto [variant, reordered] = GetParam();
  const perf::MachineConfig m = perf::MachineConfig::summit();
  const perf::GridSetup setup = perf::make_grid(m, /*nodes=*/2, reordered);
  sched::CollectTraceSink sink;
  const perf::RunPoint p = perf::simulate_fw_placement(
      m, variant, setup, 2, 8 * 768.0, 768.0, /*comm_only=*/false, &sink);

  BuildStats bs;
  const Graph g = causal::build_graph(sink.events(), &bs);
  EXPECT_EQ(bs.unmatched_recvs, 0u);
  EXPECT_GT(bs.matched_messages, 0u);

  BlameReport r;
  std::string err;
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  // Exact: the partition telescopes to t_max - t_min, DES clocks start at
  // 0, and the last event to end IS the makespan.
  EXPECT_DOUBLE_EQ(r.span, p.seconds);
  expect_partition(g, r);
  for (double s : r.slack) EXPECT_GE(s, -1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsBothPlacements, DesCriticalPath,
    ::testing::Combine(::testing::ValuesIn(kAllVariants),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<DesCriticalPath::ParamType>& info) {
      return std::string(sched::variant_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_reordered" : "_rowmajor");
    });

TEST(DesWhatIf, FasterLinkPredictionConfirmedByRerun) {
  const perf::MachineConfig m = perf::MachineConfig::summit();
  const perf::GridSetup setup = perf::make_grid(m, 2, /*reordered=*/true);
  sched::CollectTraceSink sink;
  perf::simulate_fw_placement(m, Variant::kAsync, setup, 2, 8 * 768.0, 768.0,
                              false, &sink);
  BlameReport r;
  std::string err;
  const Graph g = causal::build_graph(sink.events());
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;

  const double predicted = causal::recost(r, {/*comm=*/2.0, /*compute=*/1.0});
  EXPECT_LE(predicted, r.span + 1e-12);

  perf::MachineConfig fast = m;
  fast.nic_bw *= 2.0;
  fast.intranode_bw *= 2.0;
  const perf::RunPoint rerun = perf::simulate_fw_placement(
      fast, Variant::kAsync, setup, 2, 8 * 768.0, 768.0, false, nullptr);
  // The re-cost keeps the old path's structure while the DES may reshape
  // it, so the prediction is approximate — but it must land close.
  EXPECT_NEAR(predicted, rerun.seconds, 0.15 * rerun.seconds);
}

// ---------------------------------------------------------------------------
// Real-execution traces (mpisim): fault matrix, wall-clock reconciliation,
// checkpoint joins.

// No pointer members: gtest prints the raw bytes of the case into the test's
// full ID, and an address there would change the ID with every relink.
struct FaultCase {
  std::uint32_t n, block;
  double drop, dup, delay;
};

std::string fault_case_name(const FaultCase& fc) {
  const int on = (fc.drop > 0) + (fc.dup > 0) + (fc.delay > 0);
  if (on == 0) return "clean";
  if (on > 1) return "all";
  return fc.drop > 0 ? "drop" : fc.dup > 0 ? "dup" : "delay";
}

class FaultMatrixCausal : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultMatrixCausal, GraphStaysAcyclicAndFullyMatched) {
  const FaultCase fc = GetParam();
  const std::size_t n = fc.n, b = fc.block;
  const auto grid = dist::GridSpec::row_major(2, 2);
  dist::DistFwOptions opt;
  opt.variant = Variant::kAsync;
  opt.block_size = b;
  opt.faults.seed = 0xC0FFEEu;
  opt.faults.drop_prob = fc.drop;
  opt.faults.dup_prob = fc.dup;
  opt.faults.delay_prob = fc.delay;
  opt.faults.delay_seconds = 0.0005;
  opt.resilience.send_timeout = 0.002;
  sched::CollectTraceSink sink;
  opt.trace = &sink;
  DenseEntryGen<float> gen(11, 0.9, 1.0f, 80.0f, /*integral=*/true);
  dist::run_parallel_fw<MinPlus<float>>(n, gen, grid, 2, opt);

  BuildStats bs;
  const Graph g = causal::build_graph(sink.events(), &bs);
  std::vector<int> order;
  EXPECT_TRUE(causal::topo_order(g, &order));
  // Every consumed message must join a send — retransmits and duplicates
  // may leave extra send events, never orphan recvs.
  EXPECT_EQ(bs.unmatched_recvs, 0u);
  EXPECT_GT(bs.matched_messages, 0u);

  BlameReport r;
  std::string err;
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  expect_partition(g, r);
}

INSTANTIATE_TEST_SUITE_P(
    DropDupDelay, FaultMatrixCausal,
    ::testing::Values(FaultCase{48, 8, 0.0, 0.0, 0.0},
                      FaultCase{48, 8, 0.05, 0.0, 0.0},
                      FaultCase{48, 8, 0.0, 0.08, 0.0},
                      FaultCase{48, 8, 0.0, 0.0, 0.08},
                      FaultCase{48, 8, 0.03, 0.03, 0.03}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      return fault_case_name(info.param);
    });

TEST(RealTrace, BlameTotalReconcilesWithWallTime) {
  const std::size_t n = 64, b = 8;
  const auto grid = dist::GridSpec::row_major(2, 2);
  dist::DistFwOptions opt;
  opt.variant = Variant::kAsync;
  opt.block_size = b;
  sched::CollectTraceSink sink;
  opt.trace = &sink;
  DenseEntryGen<float> gen(29, 0.9, 1.0f, 80.0f, /*integral=*/true);
  const auto res = dist::run_parallel_fw<MinPlus<float>>(n, gen, grid, 2, opt);

  BlameReport r;
  std::string err;
  const Graph g = causal::build_graph(sink.events());
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  // Categories partition the span exactly; the span itself must sit
  // inside the measured wall time of the parallel section (the section
  // also covers untraced setup: local fill, communicator split, gather).
  EXPECT_NEAR(category_sum(r), r.span, 1e-9 * std::max(1.0, r.span));
  EXPECT_GT(r.span, 0.0);
  EXPECT_LE(r.span, res.seconds * 1.05);
}

TEST(RealTrace, CheckpointCutsBecomeBarrierJoins) {
  const std::size_t n = 48, b = 8;
  const auto grid = dist::GridSpec::row_major(2, 2);
  MemoryCheckpointStore store;
  dist::DistFwOptions opt;
  opt.variant = Variant::kBaseline;
  opt.block_size = b;
  opt.resilience.checkpoint_every = 2;
  opt.resilience.store = &store;
  sched::CollectTraceSink sink;
  opt.trace = &sink;
  DenseEntryGen<float> gen(17, 0.9, 1.0f, 80.0f, /*integral=*/true);
  dist::run_parallel_fw<MinPlus<float>>(n, gen, grid, 2, opt);

  BuildStats bs;
  const Graph g = causal::build_graph(sink.events(), &bs);
  EXPECT_GE(bs.joins, 1u);
  std::vector<int> order;
  EXPECT_TRUE(causal::topo_order(g, &order));
  BlameReport r;
  std::string err;
  ASSERT_TRUE(causal::analyze(g, {}, &r, &err)) << err;
  expect_partition(g, r);
  EXPECT_TRUE(r.by_phase.count("checkpoint") ||
              r.category(Category::kCheckpoint) >= 0.0);
}

// ---------------------------------------------------------------------------
// Chrome-trace round trip and loader diagnostics (ISSUE satellites 1-2).

TEST(TraceIo, ChromeRoundTripPreservesCausalAnnotations) {
  sched::CollectTraceSink sink;
  TraceEvent a = span(0, "OuterUpdate", 1.0, 2.0);
  a.k = 4;
  a.bytes = 123;
  a.flops = 7.5;
  sink.record(a);
  sink.record(send_at(0, 1, 2.0, 1007, 3, 5));
  sink.record(recv_span(1, 0, 1.2, 2.4, 1007, 3, 5, /*attempt=*/1));
  std::ostringstream os;
  sink.write_chrome(os);
  const std::string json = os.str();

  // Flow events for the matched pair (satellite: Chrome arrows).
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("msgflow"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  const causal::LoadResult lr = causal::load_chrome_trace(json);
  ASSERT_TRUE(lr.ok) << lr.error;
  ASSERT_EQ(lr.events.size(), 3u);  // flow rows must not round-trip as ops
  const TraceEvent& ra = lr.events[0];
  EXPECT_EQ(std::string(ra.name), "OuterUpdate");
  EXPECT_EQ(ra.k, 4u);
  EXPECT_EQ(ra.bytes, 123);
  EXPECT_NEAR(ra.t_end - ra.t_begin, 1.0, 1e-9);
  const TraceEvent& rr = lr.events[2];
  EXPECT_EQ(rr.ek, EventKind::kRecv);
  EXPECT_EQ(rr.peer, 0);
  EXPECT_EQ(rr.tag, 1007);
  EXPECT_EQ(rr.seq, 3u);
  EXPECT_EQ(rr.ctx, 5u);
  EXPECT_EQ(rr.attempt, 1u);

  // The reloaded trace must produce the same causal join.
  BuildStats bs;
  causal::build_graph(lr.events, &bs);
  EXPECT_EQ(bs.matched_messages, 1u);
}

TEST(TraceIo, TruncatedDocumentFailsWithByteOffset) {
  sched::CollectTraceSink sink;
  sink.record(span(0, "OuterUpdate", 0.0, 1.0));
  std::ostringstream os;
  sink.write_chrome(os);
  const std::string json = os.str();
  const causal::LoadResult lr =
      causal::load_chrome_trace(json.substr(0, json.size() / 2));
  EXPECT_FALSE(lr.ok);
  EXPECT_TRUE(lr.events.empty());
  EXPECT_NE(lr.error.find("byte"), std::string::npos) << lr.error;
}

TEST(TraceIo, MalformedEventsNameTheOffendingIndex) {
  const causal::LoadResult lr = causal::load_chrome_trace(
      "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0}]}");
  EXPECT_FALSE(lr.ok);
  EXPECT_NE(lr.error.find("traceEvents[0]"), std::string::npos) << lr.error;
}

TEST(TraceIo, NonObjectDocumentAndMissingFileAreErrors) {
  EXPECT_FALSE(causal::load_chrome_trace("[1,2,3]").ok);
  EXPECT_FALSE(causal::load_chrome_trace("").ok);
  EXPECT_FALSE(
      causal::load_chrome_trace_file("/nonexistent/trace.json").ok);
}

TEST(TraceIo, ParseJsonReportsOffsets) {
  causal::JsonValue v;
  std::string err;
  ASSERT_TRUE(causal::parse_json(
      "{\"a\": [1, 2.5, true, null, \"s\"]}", &v, &err));
  const causal::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 5u);
  EXPECT_DOUBLE_EQ(a->arr[1].number, 2.5);
  EXPECT_FALSE(causal::parse_json("{\"a\": [1, 2", &v, &err));
  EXPECT_NE(err.find("byte"), std::string::npos) << err;
}

}  // namespace
}  // namespace parfw
