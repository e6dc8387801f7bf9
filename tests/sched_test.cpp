// Tests for the schedule IR (src/sched/) and its two interpreters.
//
// The headline suite is the DES-vs-real cross-validation: for every
// variant x placement x payload, perf::reconcile_run executes the SAME
// schedule with the data-carrying interpreter (dist::parallel_fw) and
// the metadata-costing one (the DES), and the wire traffic and compute
// work must agree exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/diag_update.hpp"
#include "dist/driver.hpp"
#include "dist/parallel_fw.hpp"
#include "perf/experiments.hpp"
#include "perf/machine.hpp"
#include "perf/reconcile.hpp"
#include "perf/schedule.hpp"
#include "sched/ir.hpp"
#include "sched/trace.hpp"

namespace parfw {
namespace {

using sched::OpKind;
using sched::Variant;

constexpr OpKind kAllOpKinds[] = {
    OpKind::kDiagUpdate,     OpKind::kDiagBcastRow,  OpKind::kDiagBcastCol,
    OpKind::kPanelUpdateRow, OpKind::kPanelUpdateCol, OpKind::kRowPanelBcast,
    OpKind::kColPanelBcast,  OpKind::kLookaheadRow,  OpKind::kLookaheadCol,
    OpKind::kOuterUpdate};

constexpr Variant kAllVariants[] = {Variant::kBaseline, Variant::kPipelined,
                                    Variant::kAsync, Variant::kOffload};

sched::Schedule small_schedule(Variant v, const dist::GridSpec& grid,
                               std::size_t nb, std::size_t b) {
  sched::ScheduleParams sp;
  sp.variant = v;
  sp.nb = nb;
  sp.b = b;
  sp.word_bytes = sizeof(float);
  sp.diag_flops = diag_update_flops(b, DiagStrategy::kClassic);
  return sched::build_schedule(grid, sp);
}

// ---------------------------------------------------------------------------
// Tag space (owned by the IR; dist and DES both draw from sched::tag_of).

TEST(TagSpace, InjectiveAcrossIterationsAndPhases) {
  std::set<std::int32_t> seen;
  for (std::size_t k = 0; k < 2048; ++k) {
    for (int phase = 0; phase < sched::kTagsPerIter; ++phase) {
      const std::int32_t tag = sched::tag_of(k, phase);
      EXPECT_GE(tag, sched::kTagBase);
      EXPECT_TRUE(seen.insert(tag).second)
          << "tag " << tag << " reused at k=" << k << " phase=" << phase;
    }
  }
}

TEST(TagSpace, ConcurrentIterationsNeverAlias) {
  // The pipelined/async schedules keep the collectives of iterations k and
  // k+1 in flight at once; their tag ranges must be disjoint for every k.
  for (std::size_t k = 0; k + 1 < 100000; ++k) {
    ASSERT_LT(sched::tag_of(k, sched::kTagsPerIter - 1),
              sched::tag_of(k + 1, 0));
  }
}

TEST(TagSpace, PhaseConstantsStayInsideTheIterationBlock) {
  for (int phase :
       {sched::kTagDiagRow, sched::kTagDiagCol, sched::kTagRowPanel,
        sched::kTagColPanel}) {
    EXPECT_GE(phase, 0);
    EXPECT_LT(phase, sched::kTagsPerIter);
  }
  EXPECT_EQ(sched::tag_of(0, sched::kTagDiagRow), sched::kTagBase);
}

TEST(TagSpace, PathsScheduleTagsIdentifyOneCollective) {
  // Injectivity extended from the raw (k, phase) map to the GENERATED
  // schedules a paths solve runs — the values schedule, since the witness
  // pass follows the gather: in every variant a tag names exactly one
  // logical collective — all steps sharing a tag agree on (k, kind, coll,
  // bytes) — and every comm op's tag is tag_of(k, its phase).
  const auto grid = dist::GridSpec::row_major(2, 3);
  const std::size_t nb = 6, b = 4;
  for (Variant v : kAllVariants) {
    sched::ScheduleParams sp;
    sp.variant = v;
    sp.nb = nb;
    sp.b = b;
    sp.word_bytes = sizeof(float);
    sp.diag_flops = diag_update_flops(b, DiagStrategy::kLogSquaring);
    const sched::Schedule s = sched::build_schedule(grid, sp);

    using Key = std::tuple<std::uint32_t, int, int, std::int64_t>;
    std::map<std::int32_t, Key> owner;
    std::map<OpKind, std::size_t> comm;
    for (const sched::Step& step : s.steps) {
      const sched::Op& op = step.op;
      if (!sched::is_comm(op.kind)) continue;
      comm[op.kind]++;
      const int phase = op.kind == OpKind::kDiagBcastRow   ? sched::kTagDiagRow
                        : op.kind == OpKind::kDiagBcastCol ? sched::kTagDiagCol
                        : op.kind == OpKind::kRowPanelBcast
                            ? sched::kTagRowPanel
                            : sched::kTagColPanel;
      EXPECT_EQ(op.tag, sched::tag_of(op.k, phase)) << variant_name(v);
      const Key key{op.k, static_cast<int>(op.kind), static_cast<int>(op.coll),
                    op.bytes};
      auto [it, fresh] = owner.emplace(op.tag, key);
      if (!fresh) {
        EXPECT_EQ(it->second, key)
            << variant_name(v) << ": tag " << op.tag
            << " shared by two distinct collectives";
      }
    }
    for (OpKind kind : {OpKind::kDiagBcastRow, OpKind::kDiagBcastCol,
                        OpKind::kRowPanelBcast, OpKind::kColPanelBcast})
      EXPECT_GT(comm[kind], 0u) << variant_name(v);
  }
}

TEST(TagSpace, RelayHandshakeOffsetsFitTheMatchKey) {
  // The DES background-relay agents derive ready/done tags as
  // tag + (1 << 22) and tag + (1 << 23). Plain tags must stay below
  // 1 << 22 so the three ranges never collide and everything fits the
  // simulator's 24-bit match-key tag field. That holds up to
  // k = 1048325 — n ≈ 800M vertices at b = 768, more than two orders of
  // magnitude past the paper's largest run.
  const std::size_t max_k = ((std::size_t{1} << 22) - sched::kTagBase) /
                                sched::kTagsPerIter -
                            1;
  EXPECT_GE(max_k, 524161u);
  const std::int32_t tag = sched::tag_of(max_k, sched::kTagsPerIter - 1);
  EXPECT_LT(tag, 1 << 22);
  EXPECT_LT(tag + (1 << 23), 1 << 24);
}

// ---------------------------------------------------------------------------
// Generator structure.

TEST(Generators, EveryVariantCoversAllIterationsOnAllRanks) {
  const auto grid = dist::GridSpec::row_major(2, 3);
  const std::size_t nb = 6, b = 4;
  for (Variant v : kAllVariants) {
    const sched::Schedule s = small_schedule(v, grid, nb, b);
    std::set<std::uint32_t> diag_k;
    std::vector<std::set<std::uint32_t>> outer_k(
        static_cast<std::size_t>(grid.size()));
    for (const sched::Step& step : s.steps) {
      ASSERT_GE(step.rank, 0);
      ASSERT_LT(step.rank, grid.size());
      ASSERT_LT(step.op.k, nb);
      if (step.op.kind == OpKind::kDiagUpdate) {
        EXPECT_TRUE(diag_k.insert(step.op.k).second)
            << "duplicate DiagUpdate k=" << step.op.k;
      }
      if (step.op.kind == OpKind::kOuterUpdate) {
        EXPECT_TRUE(
            outer_k[static_cast<std::size_t>(step.rank)].insert(step.op.k)
                .second);
      }
    }
    EXPECT_EQ(diag_k.size(), nb) << variant_name(v);
    for (const auto& per_rank : outer_k)
      EXPECT_EQ(per_rank.size(), nb) << variant_name(v);
  }
}

TEST(Generators, CollectiveKindsFollowTheVariant) {
  const auto grid = dist::GridSpec::row_major(2, 2);
  for (Variant v : kAllVariants) {
    const sched::Schedule s = small_schedule(v, grid, 4, 4);
    for (const sched::Step& step : s.steps) {
      const sched::Op& op = step.op;
      if (op.kind == OpKind::kDiagBcastRow ||
          op.kind == OpKind::kDiagBcastCol) {
        EXPECT_EQ(op.coll, sched::CollKind::kTree);
      }
      if (op.kind == OpKind::kRowPanelBcast ||
          op.kind == OpKind::kColPanelBcast) {
        EXPECT_EQ(op.coll, v == Variant::kAsync ? sched::CollKind::kRing
                                                : sched::CollKind::kTree);
      }
      if (sched::is_comm(op.kind)) {
        EXPECT_GT(op.bytes, 0);
        EXPECT_GE(op.tag, sched::kTagBase);
        EXPECT_GE(op.root, 0);
      }
      EXPECT_EQ(op.offload,
                v == Variant::kOffload && op.kind == OpKind::kOuterUpdate);
    }
  }
}

TEST(Generators, LookaheadOnlyInPipelinedSchedules) {
  const auto grid = dist::GridSpec::row_major(2, 2);
  for (Variant v : kAllVariants) {
    const sched::Schedule s = small_schedule(v, grid, 4, 4);
    bool has_lookahead = false;
    for (const sched::Step& step : s.steps)
      has_lookahead |= step.op.kind == OpKind::kLookaheadRow ||
                       step.op.kind == OpKind::kLookaheadCol;
    EXPECT_EQ(has_lookahead,
              v == Variant::kPipelined || v == Variant::kAsync)
        << variant_name(v);
  }
}

TEST(Generators, DeterministicAndRankProgramIsTheRankRestriction) {
  const auto grid = dist::GridSpec::tiled(2, 1, 1, 2);
  const sched::Schedule a = small_schedule(Variant::kAsync, grid, 4, 4);
  const sched::Schedule b = small_schedule(Variant::kAsync, grid, 4, 4);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].rank, b.steps[i].rank);
    EXPECT_EQ(a.steps[i].op.kind, b.steps[i].op.kind);
    EXPECT_EQ(a.steps[i].op.k, b.steps[i].op.k);
    EXPECT_EQ(a.steps[i].op.tag, b.steps[i].op.tag);
  }
  for (int w = 0; w < grid.size(); ++w) {
    const std::vector<sched::Op> prog = a.rank_program(w);
    std::size_t i = 0;
    for (const sched::Step& step : a.steps) {
      if (step.rank != w) continue;
      ASSERT_LT(i, prog.size());
      EXPECT_EQ(prog[i].kind, step.op.kind);
      EXPECT_EQ(prog[i].k, step.op.k);
      ++i;
    }
    EXPECT_EQ(i, prog.size());
  }
}

TEST(Generators, BaselineTotalsMatchClosedForm) {
  const auto grid = dist::GridSpec::row_major(2, 3);
  const std::size_t nb = 6, b = 4;
  const sched::Schedule s = small_schedule(Variant::kBaseline, grid, nb, b);
  const sched::ScheduleTotals t = sched::totals(s);

  const double db = static_cast<double>(b), dnb = static_cast<double>(nb);
  const double diag = diag_update_flops(b, DiagStrategy::kClassic);
  // Per iteration: panels update all nb row blocks and all nb column
  // blocks (2b^3 each), the outer update covers the full nb x nb grid.
  const double expect_flops =
      dnb * (diag + 4 * dnb * db * db * db + 2 * dnb * dnb * db * db * db);
  EXPECT_DOUBLE_EQ(t.flops, expect_flops);

  // Payload bytes summed over per-member comm ops: each iteration posts a
  // b^2 diagonal to pc row members and pr column members, a full block row
  // to the pr members of each column chain, and a full block column to the
  // pc members of each row chain.
  const std::int64_t w = sizeof(float);
  const std::int64_t bb = static_cast<std::int64_t>(b * b) * w;
  const std::int64_t per_iter =
      (grid.cols() + grid.rows()) * bb +
      grid.rows() * static_cast<std::int64_t>(nb) * bb +
      grid.cols() * static_cast<std::int64_t>(nb) * bb;
  EXPECT_EQ(t.payload_bytes, static_cast<std::int64_t>(nb) * per_iter);
}

TEST(Generators, SharedCompWorkIsVariantInvariant) {
  const auto grid = dist::GridSpec::row_major(2, 2);
  const auto base = sched::totals(small_schedule(Variant::kBaseline, grid, 4, 4));
  const auto off = sched::totals(small_schedule(Variant::kOffload, grid, 4, 4));
  const auto pipe = sched::totals(small_schedule(Variant::kPipelined, grid, 4, 4));
  const auto async = sched::totals(small_schedule(Variant::kAsync, grid, 4, 4));
  // Offload only re-binds the outer update; async only re-binds the
  // collective algorithm. The arithmetic schedule is unchanged.
  EXPECT_DOUBLE_EQ(base.flops, off.flops);
  EXPECT_DOUBLE_EQ(pipe.flops, async.flops);
  EXPECT_EQ(base.payload_bytes, off.payload_bytes);
  EXPECT_EQ(pipe.payload_bytes, async.payload_bytes);
  // Look-ahead re-derives the next iteration's panels early: extra flops.
  EXPECT_GT(pipe.flops, base.flops);
}

// ---------------------------------------------------------------------------
// Resume / checkpoint schedules (DESIGN.md "Resilience").

TEST(ResumeSchedule, DefaultParamsEmitNoCheckpointOps) {
  const auto grid = dist::GridSpec::row_major(2, 2);
  for (const Variant v : kAllVariants)
    for (const sched::Step& s : small_schedule(v, grid, 6, 8).steps)
      EXPECT_NE(s.op.kind, OpKind::kCheckpoint) << variant_name(v);
}

TEST(ResumeSchedule, CheckpointCutsLandEveryNthIteration) {
  const auto grid = dist::GridSpec::row_major(2, 2);
  for (const Variant v : kAllVariants) {
    sched::ScheduleParams sp;
    sp.variant = v;
    sp.nb = 6;
    sp.b = 8;
    sp.word_bytes = sizeof(float);
    sp.checkpoint_every = 2;
    const auto s = sched::build_schedule(grid, sp);
    std::set<std::size_t> cut_iters;
    std::size_t cut_ops = 0;
    for (const sched::Step& step : s.steps)
      if (step.op.kind == OpKind::kCheckpoint) {
        cut_iters.insert(step.op.k);
        ++cut_ops;
      }
    // Cuts at k = 2 and 4 (never at the start), one op per rank per cut.
    EXPECT_EQ(cut_iters, (std::set<std::size_t>{2, 4})) << variant_name(v);
    EXPECT_EQ(cut_ops, cut_iters.size() * static_cast<std::size_t>(grid.size()))
        << variant_name(v);
  }
}

TEST(ResumeSchedule, StartKReplaysExactlyTheSuffix) {
  // The resume schedule must cover iterations start_k..nb-1 and nothing
  // earlier; a start at nb is a valid empty program.
  const auto grid = dist::GridSpec::row_major(2, 2);
  for (const Variant v : kAllVariants) {
    sched::ScheduleParams sp;
    sp.variant = v;
    sp.nb = 6;
    sp.b = 8;
    sp.word_bytes = sizeof(float);
    sp.start_k = 3;
    const auto s = sched::build_schedule(grid, sp);
    std::set<std::size_t> iters;
    for (const sched::Step& step : s.steps) iters.insert(step.op.k);
    EXPECT_EQ(*iters.begin(), 3u) << variant_name(v);
    EXPECT_EQ(*iters.rbegin(), 5u) << variant_name(v);
    EXPECT_EQ(iters.size(), 3u) << variant_name(v);

    sp.start_k = 6;
    EXPECT_TRUE(sched::build_schedule(grid, sp).steps.empty())
        << variant_name(v);
  }
}

TEST(ResumeSchedule, SuffixOpsMatchTheFullScheduleTail) {
  // Replay correctness leans on the resume schedule emitting the SAME ops
  // (modulo the pipelined prologue re-staging start_k's panels) the full
  // schedule would run from start_k on — spot-check the baseline variant,
  // whose loop body has no cross-iteration staging.
  const auto grid = dist::GridSpec::row_major(2, 2);
  sched::ScheduleParams sp;
  sp.variant = Variant::kBaseline;
  sp.nb = 5;
  sp.b = 8;
  sp.word_bytes = sizeof(float);
  const auto full = sched::build_schedule(grid, sp);
  sp.start_k = 2;
  const auto resumed = sched::build_schedule(grid, sp);

  std::vector<sched::Step> tail;
  for (const sched::Step& step : full.steps)
    if (step.op.k >= 2) tail.push_back(step);
  ASSERT_EQ(tail.size(), resumed.steps.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].rank, resumed.steps[i].rank) << i;
    EXPECT_EQ(tail[i].op.kind, resumed.steps[i].op.kind) << i;
    EXPECT_EQ(tail[i].op.k, resumed.steps[i].op.k) << i;
    EXPECT_EQ(tail[i].op.tag, resumed.steps[i].op.tag) << i;
  }
}

// ---------------------------------------------------------------------------
// Trace sinks.

TEST(TraceSinks, StatsAggregatesPerName) {
  sched::StatsTraceSink sink;
  sink.record({0, "OuterUpdate", 0, 1.0, 3.0, 0, 100.0});
  sink.record({1, "OuterUpdate", 1, 2.0, 2.5, 0, 50.0});
  sink.record({0, "RowPanelBcast", 0, 0.0, 1.0, 640, 0.0});
  const auto outer = sink.of("OuterUpdate");
  EXPECT_EQ(outer.count, 2u);
  EXPECT_DOUBLE_EQ(outer.flops, 150.0);
  EXPECT_DOUBLE_EQ(outer.seconds, 2.5);
  EXPECT_EQ(sink.of("RowPanelBcast").bytes, 640);
  EXPECT_EQ(sink.of("nope").count, 0u);
  EXPECT_EQ(sink.total().count, 3u);
}

TEST(TraceSinks, ChromeTraceWritesWellFormedJson) {
  sched::CollectTraceSink sink;
  sink.record({0, "OuterUpdate", 2, 1.0, 2.0, 0, 64.0});
  sink.record({3, "msg", 0, 1.5, 1.5, 128, 0.0});
  std::ostringstream os;
  sink.write_chrome(os);
  const std::string json = os.str();
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"OuterUpdate\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // duration event
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant event
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceSinks, CappedSinksDropNewAndMarkTruncation) {
  sched::CollectTraceSink capped(/*max_events=*/2);
  for (int i = 0; i < 5; ++i)
    capped.record({0, "OuterUpdate", 0, 0.1 * i, 0.1 * i + 0.05, 0, 1.0});
  EXPECT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped.truncated(), 3u);
  std::ostringstream os;
  capped.write_chrome(os);
  const std::string json = os.str();
  // The truncation marker instant carries the dropped count in bytes.
  EXPECT_NE(json.find(sched::kTruncatedMarker), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":3"), std::string::npos);
  // Drop-NEW: the head of the run survives.
  EXPECT_DOUBLE_EQ(capped.events().front().t_begin, 0.0);
  EXPECT_DOUBLE_EQ(capped.events().back().t_begin, 0.1);
}

TEST(TraceSinks, RingKeepsTheNewestWindowInOrder) {
  // 4-slot ring: after 10 events the window is the last 4, oldest first.
  sched::RingTraceSink ring(sizeof(sched::TraceEvent) * 4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 10; ++i)
    ring.record({i, "OuterUpdate", static_cast<std::uint32_t>(i),
                 0.1 * i, 0.1 * i + 0.05, 0, 1.0});
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto w = ring.window();
  ASSERT_EQ(w.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(w[i].k, static_cast<std::uint32_t>(6 + i));

  std::ostringstream os;
  ring.write_chrome(os);
  const std::string json = os.str();
  // Drop-OLDEST: the marker carries the overwritten count and sits at
  // the window's head.
  EXPECT_NE(json.find(sched::kTruncatedMarker), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":6"), std::string::npos);
}

TEST(TraceSinks, RingBelowCapacityDropsNothing) {
  sched::RingTraceSink ring(sizeof(sched::TraceEvent) * 8);
  for (int i = 0; i < 5; ++i)
    ring.record({0, "msg", static_cast<std::uint32_t>(i), 0.0, 0.0, 0, 0.0});
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto w = ring.window();
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w.front().k, 0u);
  EXPECT_EQ(w.back().k, 4u);
  std::ostringstream os;
  ring.write_chrome(os);
  EXPECT_EQ(os.str().find(sched::kTruncatedMarker), std::string::npos);
}

TEST(TraceSinks, TeeFansOutToEverySink) {
  sched::StatsTraceSink stats;
  sched::RingTraceSink ring;
  sched::TeeTraceSink tee;
  tee.add(&stats);
  tee.add(&ring);
  tee.add(nullptr);  // ignored
  tee.record({0, "OuterUpdate", 0, 0.0, 1.0, 0, 5.0});
  EXPECT_EQ(stats.of("OuterUpdate").count, 1u);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(TraceSinks, DesEmitsScheduleLabelledEvents) {
  const perf::MachineConfig m = perf::MachineConfig::summit();
  sched::StatsTraceSink sink;
  const perf::GridSetup setup = perf::make_grid(m, 1, /*reordered=*/true);
  perf::simulate_fw_placement(m, Variant::kAsync, setup, 1, 12 * 768.0, 768.0,
                              /*comm_only=*/false, &sink);
  EXPECT_GT(sink.of(sched::op_name(OpKind::kOuterUpdate)).count, 0u);
  EXPECT_GT(sink.of(sched::op_name(OpKind::kRowPanelBcast)).bytes, 0);
}

// ---------------------------------------------------------------------------
// Real execution vs the IR's own metadata.

TEST(CrossValidation, RealTraceMatchesScheduleTotals) {
  const std::size_t n = 64, b = 8;
  const auto grid = dist::GridSpec::row_major(2, 2);
  dist::DistFwOptions opt;
  opt.variant = Variant::kAsync;
  opt.block_size = b;
  sched::StatsTraceSink stats;
  opt.trace = &stats;
  DenseEntryGen<float> gen(11, 0.9, 1.0f, 80.0f, /*integral=*/true);
  dist::run_parallel_fw<MinPlus<float>>(n, gen, grid, 2, opt);

  const sched::Schedule s =
      small_schedule(Variant::kAsync, grid, n / b, b);
  const sched::ScheduleTotals t = sched::totals(s);

  double flops = 0.0;
  std::int64_t bytes = 0;
  std::uint64_t comp = 0, comm = 0;
  for (OpKind kind : kAllOpKinds) {
    const auto st = stats.of(sched::op_name(kind));
    flops += st.flops;
    bytes += st.bytes;
    (sched::is_comm(kind) ? comm : comp) += st.count;
  }
  EXPECT_DOUBLE_EQ(flops, t.flops);
  EXPECT_EQ(bytes, t.payload_bytes);
  EXPECT_EQ(comp, t.comp_ops);
  EXPECT_EQ(comm, t.comm_ops);
}

TEST(CrossValidation, TracingDoesNotChangeResults) {
  const std::size_t n = 64, b = 8;
  const auto grid = dist::GridSpec::row_major(2, 2);
  DenseEntryGen<float> gen(23, 0.85, 1.0f, 90.0f, /*integral=*/true);
  dist::DistFwOptions opt;
  opt.variant = Variant::kPipelined;
  opt.block_size = b;
  const auto plain = dist::run_parallel_fw<MinPlus<float>>(n, gen, grid, 2, opt);
  sched::CollectTraceSink sink;
  opt.trace = &sink;
  const auto traced = dist::run_parallel_fw<MinPlus<float>>(n, gen, grid, 2, opt);
  EXPECT_GT(sink.size(), 0u);
  ASSERT_EQ(plain.dist.size(), traced.dist.size());
  EXPECT_EQ(std::memcmp(plain.dist.data(), traced.dist.data(),
                        plain.dist.size() * sizeof(float)),
            0);
}

// The headline check: perf::reconcile_run runs one schedule through the
// real interpreter (mpisim) and the DES, and the two must agree EXACTLY
// on total and internode wire bytes (also through the live
// mpi.send_bytes counter) and on every compute phase's op count and
// flops — for every variant x placement. A paths solve runs the same
// schedule: its instances check that the driver's paths run moves exactly
// the bytes of its values run (the witness pass follows the gather).
class DesVsReal
    : public ::testing::TestWithParam<std::tuple<Variant, bool, bool>> {};

dist::GridSpec reconcile_grid(bool tiled) {
  return tiled ? dist::GridSpec::tiled(2, 1, 1, 2)
               : dist::GridSpec::row_major(2, 2);
}

dist::DistFwOptions reconcile_options(Variant variant) {
  const std::size_t b = 8;
  dist::DistFwOptions opt;
  opt.variant = variant;
  opt.block_size = b;
  if (variant == Variant::kOffload) {
    opt.oog.mx = opt.oog.nx = 2 * b;
    opt.oog.num_streams = 2;
  }
  return opt;
}

perf::ReconcileReport reconcile_case(Variant variant, bool tiled,
                                     telemetry::Registry* reg = nullptr,
                                     std::size_t n = 96) {
  return perf::reconcile_run(reconcile_grid(tiled), /*ranks_per_node=*/2, n,
                             reconcile_options(variant), reg);
}

TEST_P(DesVsReal, WireBytesMatchExactly) {
  const auto [variant, tiled, paths] = GetParam();
  telemetry::Registry reg;
  const perf::ReconcileReport rep = reconcile_case(variant, tiled, &reg);
  SCOPED_TRACE(rep.table());

  EXPECT_GT(rep.measured_wire.bytes_total, 0);
  EXPECT_EQ(rep.measured_wire.bytes_total, rep.modelled_wire.bytes_total);
  EXPECT_EQ(rep.measured_wire.bytes_internode,
            rep.modelled_wire.bytes_internode);
  EXPECT_EQ(rep.registry_send_bytes, rep.measured_wire.bytes_total);
  EXPECT_TRUE(rep.exact_mismatches().empty());

  // The live series also carried the per-op phase instrumentation.
  EXPECT_GT(reg.counter("mpi.sends").value(), 0u);
  const std::string labels =
      std::string("phase=OuterUpdate,variant=") + variant_name(variant);
  EXPECT_GT(reg.histogram("fw.phase.seconds", labels).count(), 0u);

  // Paths: the driver's paths run moves exactly its values run's bytes,
  // total and internode — no predecessor crosses the wire.
  if (paths) {
    using S = MinPlus<float>;
    const DenseEntryGen<float> gen(7, 0.85, 1.0f, 90.0f, /*integral=*/true);
    const auto run = [&](bool track_paths) {
      return dist::run_parallel_fw<S>(96, gen, reconcile_grid(tiled), 2,
                                      reconcile_options(variant), track_paths)
          .traffic;
    };
    const mpi::TrafficStats values = run(false), with_paths = run(true);
    EXPECT_GT(with_paths.bytes_total, 0u);
    EXPECT_EQ(with_paths.bytes_total, values.bytes_total);
    EXPECT_EQ(with_paths.bytes_internode, values.bytes_internode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsBothPlacements, DesVsReal,
    ::testing::Combine(::testing::ValuesIn(kAllVariants), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<DesVsReal::ParamType>& info) {
      return std::string(variant_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_tiled" : "_rowmajor") +
             (std::get<2>(info.param) ? "_paths" : "");
    });

// A caller's registry keeps accumulating across runs: reconcile_run
// reads its own mpi.send_bytes delta, so a second run into the same
// registry still matches the DES prediction, and the live counter grows
// by the same amount both times. Two variants x both placements, n=64.
class MetricsVsDes
    : public ::testing::TestWithParam<std::tuple<Variant, bool>> {};

TEST_P(MetricsVsDes, SendBytesMatchPrediction) {
  const auto [variant, tiled] = GetParam();
  telemetry::Registry reg;
  const perf::ReconcileReport first =
      reconcile_case(variant, tiled, &reg, 64);
  const std::uint64_t after_first = reg.counter("mpi.send_bytes").value();
  const perf::ReconcileReport second =
      reconcile_case(variant, tiled, &reg, 64);
  SCOPED_TRACE(second.table());

  EXPECT_TRUE(first.bytes_match());
  EXPECT_TRUE(second.bytes_match());
  EXPECT_EQ(second.registry_send_bytes, second.modelled_wire.bytes_total);
  EXPECT_EQ(second.registry_send_bytes, first.registry_send_bytes);
  EXPECT_EQ(reg.counter("mpi.send_bytes").value(), 2 * after_first);
}

INSTANTIATE_TEST_SUITE_P(
    TwoVariantsBothPlacements, MetricsVsDes,
    ::testing::Combine(::testing::Values(Variant::kAsync, Variant::kOffload),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<MetricsVsDes::ParamType>& info) {
      return std::string(variant_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_tiled" : "_rowmajor");
    });

TEST(Reconcile, FlagsExactAndBandViolations) {
  std::map<std::string, sched::StatsTraceSink::OpStats> meas, model;
  meas["DiagUpdate"] = {10, 0, 500.0, 1.0};
  model["DiagUpdate"] = {10, 0, 500.0, 1.0};
  meas["OuterUpdate"] = {20, 0, 8000.0, 3.0};
  model["OuterUpdate"] = {20, 0, 8000.0, 3.0};
  perf::WireTotals wire;
  wire.bytes_total = 4096;
  wire.bytes_internode = 1024;
  const perf::ReconcileReport ok =
      perf::reconcile(meas, model, wire, wire, 4096);
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.exact_mismatches().empty());

  // Diverging flops on a compute phase -> exact mismatch.
  model["DiagUpdate"].flops = 999.0;
  const perf::ReconcileReport bad_flops =
      perf::reconcile(meas, model, wire, wire, 4096);
  EXPECT_FALSE(bad_flops.ok());
  ASSERT_EQ(bad_flops.exact_mismatches().size(), 1u);
  EXPECT_EQ(bad_flops.exact_mismatches()[0], "DiagUpdate");
  model["DiagUpdate"].flops = 500.0;

  // A total, internode or registry byte divergence fails bytes_match.
  perf::WireTotals more = wire;
  more.bytes_total += 1;
  EXPECT_FALSE(perf::reconcile(meas, model, wire, more, 4096).bytes_match());
  perf::WireTotals internode = wire;
  internode.bytes_internode += 1;
  const perf::ReconcileReport bad_internode =
      perf::reconcile(meas, model, wire, internode, 4096);
  EXPECT_FALSE(bad_internode.bytes_match());
  EXPECT_NE(bad_internode.table().find("MISMATCH"), std::string::npos);
  EXPECT_FALSE(perf::reconcile(meas, model, wire, wire, 4097).bytes_match());

  // A share shift past the band is reported out-of-band but not exact:
  // measured shares are 0.25/0.75, modelled become 1/31 and 30/31 — a
  // ~0.22 shift on both phases, past a 0.1 band.
  model["OuterUpdate"].seconds = 30.0;
  perf::ReconcileReport shifted =
      perf::reconcile(meas, model, wire, wire, 4096);
  shifted.share_band = 0.1;
  EXPECT_TRUE(shifted.exact_mismatches().empty());
  EXPECT_FALSE(shifted.out_of_band().empty());
  EXPECT_NE(shifted.table().find("EXACT MATCH"), std::string::npos);
}

}  // namespace
}  // namespace parfw
