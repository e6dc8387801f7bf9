// Telemetry registry and exporters (DESIGN.md §4.8).
//
// Covers registry concurrency (hammered from the thread pool — run under
// `check.sh --san thread` for the data race gate), histogram bucket
// boundaries, exporter golden files (the exporters promise deterministic
// bytes for a deterministic registry) and the TrafficStats adapter. The
// end-to-end check that the metrics path measures exactly the wire bytes
// the DES predicts is the DesVsReal suite in sched_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "causal/trace_io.hpp"
#include "telemetry/adapters.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/thread_pool.hpp"

namespace parfw {
namespace {

using telemetry::Histogram;
using telemetry::Registry;

// --- registry basics ---------------------------------------------------------

TEST(Registry, HandlesAreStableAndLabelled) {
  Registry reg;
  telemetry::Counter& a = reg.counter("x.calls");
  telemetry::Counter& b = reg.counter("x.calls", "kernel=simd");
  EXPECT_NE(&a, &b);  // labels distinguish series
  EXPECT_EQ(&a, &reg.counter("x.calls"));  // stable handle
  a.add(3);
  b.inc();
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(reg.size(), 2u);

  reg.gauge("x.depth").set(7.5);
  reg.gauge("x.depth").update_max(2.0);  // lower: no-op
  EXPECT_DOUBLE_EQ(reg.gauge("x.depth").value(), 7.5);
  reg.gauge("x.depth").update_max(9.0);
  EXPECT_DOUBLE_EQ(reg.gauge("x.depth").value(), 9.0);
}

TEST(Registry, SnapshotSortedByNameThenLabels) {
  Registry reg;
  reg.counter("b.z");
  reg.counter("a.z", "k=2");
  reg.counter("a.z", "k=1");
  reg.counter("a.z");
  const auto rows = reg.snapshot();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "a.z");
  EXPECT_EQ(rows[0].labels, "");
  EXPECT_EQ(rows[1].labels, "k=1");
  EXPECT_EQ(rows[2].labels, "k=2");
  EXPECT_EQ(rows[3].name, "b.z");
}

TEST(Registry, ScopedTimerNullHistogramIsNoop) {
  { telemetry::ScopedTimer t(nullptr); }  // must not crash
  Registry reg;
  Histogram& h = reg.histogram("t.seconds");
  { telemetry::ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
}

// --- histogram bucket boundaries ---------------------------------------------

TEST(HistogramBuckets, BoundariesAndEdges) {
  // Non-positive and sub-range values land in the first bucket; values
  // past the top land in the saturating last bucket.
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_of(1e-12), 0);
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);

  // bucket_lower inverts bucket_of: a value strictly inside bucket i
  // maps back to i, across the whole range (kSub sub-buckets per
  // power of two).
  for (int i = 0; i < Histogram::kBuckets; i += 7) {
    const double inside = Histogram::bucket_lower(i) * 1.05;
    EXPECT_EQ(Histogram::bucket_of(inside), i) << "bucket " << i;
  }
  // 1.0 == 2^0 sits exactly at the lower bound of its bucket.
  EXPECT_EQ(Histogram::bucket_of(1.0), -Histogram::kMinExp * Histogram::kSub);
}

TEST(HistogramBuckets, QuantilesWithinOneBucketWidth) {
  Registry reg;
  Histogram& h = reg.histogram("q.test");
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  const telemetry::HistogramSummary s = h.summary();
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // One bucket spans 2^(1/4) ≈ 1.19x; allow that relative error on both
  // sides of the exact quantile.
  EXPECT_NEAR(s.p50, 50.0, 50.0 * 0.2);
  EXPECT_NEAR(s.p95, 95.0, 95.0 * 0.2);
  EXPECT_NEAR(s.p99, 99.0, 99.0 * 0.2);
  // Quantiles are clamped into [min, max].
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 100.0);
}

TEST(HistogramBuckets, FineResolutionSeparatesSubMicrosecondLatencies) {
  // 1.00 µs and 1.12 µs (ratio 1.12) straddle a bucket boundary at 8
  // sub-buckets per octave (width 2^(1/8) ≈ 1.090) but share a bucket at
  // the default 4 (width 2^(1/4) ≈ 1.189) — the reason the serve.* series
  // register at kServeHistSub = 8 rather than the default geometry.
  Registry reg;
  Histogram& coarse = reg.histogram("res.coarse");
  Histogram& fine = reg.histogram("res.fine", "", /*sub_per_octave=*/8);
  EXPECT_EQ(coarse.sub_per_octave(), Histogram::kSub);
  EXPECT_EQ(fine.sub_per_octave(), 8);
  for (int i = 0; i < 100; ++i) {
    coarse.observe(1.00e-6);
    fine.observe(1.00e-6);
  }
  for (int i = 0; i < 100; ++i) {
    coarse.observe(1.12e-6);
    fine.observe(1.12e-6);
  }
  // Same bucket at sub=4: the quantiles collapse to one midpoint.
  EXPECT_DOUBLE_EQ(coarse.quantile(0.25), coarse.quantile(0.95));
  // Distinct buckets at sub=8: the quantiles separate, in order.
  EXPECT_LT(fine.quantile(0.25), fine.quantile(0.95));

  // First registration wins: a later default-resolution lookup of the
  // same (name, labels) returns the existing fine-grained instance.
  EXPECT_EQ(&reg.histogram("res.fine"), &fine);
  EXPECT_EQ(reg.histogram("res.fine").sub_per_octave(), 8);
}

// --- concurrency hammer ------------------------------------------------------

TEST(RegistryConcurrency, HammerFromThreadPool) {
  Registry reg;
  telemetry::Counter& calls = reg.counter("hammer.calls");
  Histogram& vals = reg.histogram("hammer.values");

  constexpr int kTasks = 64;
  constexpr int kOpsPerTask = 1000;
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> futs;
    futs.reserve(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      futs.push_back(pool.submit([&reg, &calls, &vals, t] {
        for (int i = 0; i < kOpsPerTask; ++i) {
          calls.inc();
          vals.observe(static_cast<double>(t + 1));
          // Handle creation races with recording on other threads.
          reg.gauge("hammer.depth", "task=" + std::to_string(t % 8))
              .update_max(static_cast<double>(i));
        }
      }));
    }
    for (auto& f : futs) f.get();
  }

  EXPECT_EQ(calls.value(), static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
  EXPECT_EQ(vals.count(), static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
  EXPECT_DOUBLE_EQ(vals.sum(),
                   1000.0 * (kTasks * (kTasks + 1) / 2));  // Σ t·1000
  for (int k = 0; k < 8; ++k)
    EXPECT_DOUBLE_EQ(
        reg.gauge("hammer.depth", "task=" + std::to_string(k)).value(),
        kOpsPerTask - 1);
}

// --- exporter golden files ---------------------------------------------------

// A small deterministic registry: one counter, one gauge, one histogram
// with three fixed observations. The exporters promise byte-stable
// output for this input; these strings are the contract.
void fill_golden(Registry& reg) {
  reg.counter("fw.rounds", "variant=async").add(12);
  reg.gauge("oog.inflight_max").set(3);
  Histogram& h = reg.histogram("mpi.msg_bytes", "coll=ring");
  h.observe(256.0);
  h.observe(1024.0);
  h.observe(1024.0);
}

TEST(ExportGolden, Json) {
  Registry reg;
  fill_golden(reg);
  // Label values are free text: quotes, backslashes and control
  // characters must come out escaped.
  const std::string note = "a\tb\nc \"d\" \\e\x01";
  reg.counter("io.notes", "note=" + note).add(1);
  std::ostringstream os;
  telemetry::to_json(reg, os);
  // p50/p95/p99 all cover the 1024 bucket; the geometric midpoint
  // (2^10.125 ≈ 1116.7) clamps to the observed max.
  const std::string expected =
      "{\"metrics\":[\n"
      "  {\"name\":\"fw.rounds\",\"labels\":{\"variant\":\"async\"},"
      "\"type\":\"counter\",\"value\":12},\n"
      "  {\"name\":\"io.notes\",\"labels\":"
      "{\"note\":\"a\\tb\\nc \\\"d\\\" \\\\e\\u0001\"},"
      "\"type\":\"counter\",\"value\":1},\n"
      "  {\"name\":\"mpi.msg_bytes\",\"labels\":{\"coll\":\"ring\"},"
      "\"type\":\"histogram\",\"count\":3,\"sum\":2304,\"min\":256,"
      "\"max\":1024,\"p50\":1024,\"p95\":1024,\"p99\":1024},\n"
      "  {\"name\":\"oog.inflight_max\",\"labels\":{},"
      "\"type\":\"gauge\",\"value\":3}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);

  // The document parses, and the label reads back as written (the
  // parser passes \u escapes through verbatim).
  causal::JsonValue doc;
  std::string err;
  ASSERT_TRUE(causal::parse_json(os.str(), &doc, &err)) << err;
  const causal::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->arr.size(), 4u);
  const causal::JsonValue* label = metrics->arr[1].find("labels");
  ASSERT_NE(label, nullptr);
  ASSERT_NE(label->find("note"), nullptr);
  EXPECT_EQ(label->find("note")->str, "a\tb\nc \"d\" \\e\\u0001");
}

TEST(ExportGolden, Prometheus) {
  Registry reg;
  fill_golden(reg);
  std::ostringstream os;
  telemetry::to_prometheus(reg, os);
  const std::string expected =
      "# TYPE parfw_fw_rounds counter\n"
      "parfw_fw_rounds{variant=\"async\"} 12\n"
      "# TYPE parfw_mpi_msg_bytes summary\n"
      "parfw_mpi_msg_bytes{coll=\"ring\",quantile=\"0.5\"} 1024\n"
      "parfw_mpi_msg_bytes{coll=\"ring\",quantile=\"0.95\"} 1024\n"
      "parfw_mpi_msg_bytes{coll=\"ring\",quantile=\"0.99\"} 1024\n"
      "parfw_mpi_msg_bytes_sum{coll=\"ring\"} 2304\n"
      "parfw_mpi_msg_bytes_count{coll=\"ring\"} 3\n"
      "# TYPE parfw_oog_inflight_max gauge\n"
      "parfw_oog_inflight_max 3\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ExportGolden, TableMentionsEveryMetric) {
  Registry reg;
  fill_golden(reg);
  const std::string t = telemetry::to_table(reg);
  EXPECT_NE(t.find("fw.rounds"), std::string::npos);
  EXPECT_NE(t.find("variant=async"), std::string::npos);
  EXPECT_NE(t.find("mpi.msg_bytes"), std::string::npos);
  EXPECT_NE(t.find("oog.inflight_max"), std::string::npos);
}

TEST(ExportGolden, JsonRoundTripsThroughSnapshot) {
  // Exporting twice from the same registry yields identical bytes (the
  // round-trip CI artifacts rely on), and dump() dispatches formats.
  Registry reg;
  fill_golden(reg);
  std::ostringstream a, b, none;
  telemetry::to_json(reg, a);
  telemetry::dump(reg, telemetry::ExportFormat::kJson, b);
  EXPECT_EQ(a.str(), b.str());
  telemetry::dump(reg, telemetry::ExportFormat::kNone, none);
  EXPECT_TRUE(none.str().empty());
}

// --- adapters ----------------------------------------------------------------

TEST(Adapters, TrafficStatsPublishUnderDistinctLabels) {
  Registry reg;
  mpi::TrafficStats s;
  s.messages = 7;
  s.bytes_total = 4096;
  s.bytes_internode = 1024;
  telemetry::publish_traffic_stats(reg, s, "scope=run");
  EXPECT_DOUBLE_EQ(reg.gauge("mpi.messages", "scope=run").value(), 7.0);
  EXPECT_DOUBLE_EQ(reg.gauge("mpi.bytes_total", "scope=run").value(), 4096.0);
  // Re-publishing overwrites (snapshot semantics).
  s.bytes_total = 8192;
  telemetry::publish_traffic_stats(reg, s, "scope=run");
  EXPECT_DOUBLE_EQ(reg.gauge("mpi.bytes_total", "scope=run").value(), 8192.0);
}

}  // namespace
}  // namespace parfw
