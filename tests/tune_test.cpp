// Tests for the causal-feedback schedule autotuner (src/tune/,
// DESIGN.md §4.10): candidate-space derivation, the memoized DES
// evaluation cache, blame-guided search, the PARFW_TUNE_CACHE manifest,
// the solve() front door's kAuto resolution — and the headline regression
// on the BENCH_cp.json reference workload: the tuned schedule must be no
// slower than the default AND cut the critical-path stall share by at
// least 20% relative.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dist/solve.hpp"
#include "graph/generators.hpp"
#include "sched/ir.hpp"
#include "sched/variant.hpp"
#include "semiring/semiring.hpp"
#include "telemetry/metrics.hpp"
#include "tune/manifest.hpp"
#include "tune/tune.hpp"
#include "util/check.hpp"

namespace parfw {
namespace {

// --- sched seam: names, hashing, kAuto gating --------------------------------

TEST(VariantNames, RoundTripAndAutoGating) {
  for (sched::Variant v : sched::kConcreteVariants) {
    sched::Variant back = sched::Variant::kAuto;
    EXPECT_TRUE(sched::variant_from_name(sched::variant_name(v), &back));
    EXPECT_EQ(back, v);
  }
  sched::Variant out = sched::Variant::kBaseline;
  EXPECT_FALSE(sched::variant_from_name("auto", &out, /*allow_auto=*/false));
  EXPECT_TRUE(sched::variant_from_name("auto", &out, /*allow_auto=*/true));
  EXPECT_EQ(out, sched::Variant::kAuto);
  EXPECT_FALSE(sched::variant_from_name("bogus", &out, /*allow_auto=*/true));
  EXPECT_EQ(sched::variant_names(), "baseline|pipelined|async|offload");
  EXPECT_EQ(sched::variant_names(/*with_auto=*/true),
            "baseline|pipelined|async|offload|auto");
}

TEST(ScheduleParamsHash, EqualityAndSensitivity) {
  sched::ScheduleParams a;
  a.variant = sched::Variant::kPipelined;
  a.nb = 8;
  a.b = 32;
  sched::ScheduleParams b = a;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(sched::hash_of(a), sched::hash_of(b));

  // Every field participates: flipping any one changes == (and, for this
  // non-adversarial corpus, the hash).
  b = a;
  b.variant = sched::Variant::kAsync;
  EXPECT_TRUE(a != b);
  EXPECT_NE(sched::hash_of(a), sched::hash_of(b));
  b = a;
  b.b = 64;
  EXPECT_TRUE(a != b);
  EXPECT_NE(sched::hash_of(a), sched::hash_of(b));
  b = a;
  b.checkpoint_every = 2;
  EXPECT_TRUE(a != b);
  EXPECT_NE(sched::hash_of(a), sched::hash_of(b));
  b = a;
  b.diag_flops = 123.0;
  EXPECT_TRUE(a != b);
  EXPECT_NE(sched::hash_of(a), sched::hash_of(b));
}

TEST(BuildSchedule, RejectsAutoPseudoVariant) {
  sched::ScheduleParams p;
  p.variant = sched::Variant::kAuto;
  p.nb = 4;
  p.b = 16;
  const dist::GridSpec grid = dist::GridSpec::row_major(2, 2);
  EXPECT_THROW(sched::build_schedule(grid, p), check_error);
}

// --- candidate-space derivation ----------------------------------------------

TEST(TuneSpace, DeriveBlocksDivisorsBoundedAndThinned) {
  tune::Workload w;
  w.n = 49152;
  w.ranks = 48;
  w.ranks_per_node = 12;
  const std::vector<std::size_t> blocks = tune::derive_blocks(w);
  ASSERT_FALSE(blocks.empty());
  EXPECT_LE(blocks.size(), 10u);
  for (std::size_t b : blocks) {
    EXPECT_EQ(w.n % b, 0u);
    EXPECT_GE(b, 8u);
    const std::size_t nb = w.n / b;
    EXPECT_GE(nb, 2u);
    EXPECT_LE(nb, tune::kMaxBlocksPerDim);
  }
}

TEST(TuneSpace, EnumeratePlacementsCoversNaiveAndTiled) {
  tune::Workload w;
  w.n = 1024;
  w.ranks = 8;
  w.ranks_per_node = 4;  // 2 nodes
  const std::vector<tune::Placement> ps = tune::enumerate_placements(w);
  bool saw_naive = false, saw_tiled = false;
  for (const tune::Placement& p : ps) {
    EXPECT_EQ(p.ranks(), w.ranks);
    if (p.tiled) {
      saw_tiled = true;
      EXPECT_EQ(p.kr * p.kc, w.nodes());
      EXPECT_EQ(p.qr() * p.qc(), w.ranks_per_node);
    } else {
      saw_naive = true;
    }
  }
  EXPECT_TRUE(saw_naive);
  EXPECT_TRUE(saw_tiled);

  // Single node: tiled placements coincide with naive ones, so none.
  w.ranks_per_node = 8;
  for (const tune::Placement& p : tune::enumerate_placements(w))
    EXPECT_FALSE(p.tiled);
}

TEST(TuneSpace, FeasibilityRejectsBadShapes) {
  tune::Workload w;
  w.n = 96;
  w.ranks = 4;
  w.ranks_per_node = 2;
  tune::Tuner tuner(w);
  tune::Candidate c = tuner.default_candidate();
  std::string why;
  EXPECT_TRUE(tuner.feasible(c, &why)) << why;
  c.block = 7;  // does not divide 96
  EXPECT_FALSE(tuner.feasible(c, &why));
  c = tuner.default_candidate();
  c.placement.pr = 8;  // 8x2 = 16 ranks != 4
  EXPECT_FALSE(tuner.feasible(c, &why));
}

// --- DES evaluation cache (satellite: memoized program builds) ---------------

TEST(TuneCache, HitIsBitIdenticalAndSkipsRebuild) {
  tune::Workload w;
  w.n = 192;
  w.ranks = 4;
  w.ranks_per_node = 2;
  tune::Tuner tuner(w);
  tune::Candidate c = tuner.default_candidate();

  const tune::Eval& first = tuner.evaluate(c);
  const std::size_t evals = tuner.cache_size();
  const double makespan = first.makespan;
  const double stall = first.stall_seconds;
  const std::int64_t wire = first.wire_bytes;

  const tune::Eval& again = tuner.evaluate(c);
  EXPECT_EQ(tuner.cache_size(), evals);  // no new DES evaluation
  EXPECT_EQ(tuner.cache_hits(), 1u);
  EXPECT_EQ(&first, &again);  // literally the same stored object
  EXPECT_EQ(again.makespan, makespan);
  EXPECT_EQ(again.stall_seconds, stall);
  EXPECT_EQ(again.wire_bytes, wire);

  // Canonicalisation: for non-offload variants the streams knob is
  // don't-care, so it must not split cache entries.
  ASSERT_NE(c.variant, sched::Variant::kOffload);
  tune::Candidate c2 = c;
  c2.streams = 1;
  (void)tuner.evaluate(c2);
  EXPECT_EQ(tuner.cache_size(), evals);
  EXPECT_EQ(tuner.cache_hits(), 2u);
}

TEST(TuneCache, DistinctConfigurationsDistinctEntries) {
  tune::Workload w;
  w.n = 192;
  w.ranks = 4;
  w.ranks_per_node = 2;
  tune::Tuner tuner(w);
  tune::Candidate c = tuner.default_candidate();
  (void)tuner.evaluate(c);
  tune::Candidate c2 = c;
  c2.variant = sched::Variant::kOffload;
  c2.streams = 1;
  (void)tuner.evaluate(c2);
  tune::Candidate c3 = c2;
  c3.streams = 3;  // offload: depth is load-bearing
  (void)tuner.evaluate(c3);
  EXPECT_EQ(tuner.cache_size(), 3u);
  EXPECT_EQ(tuner.cache_hits(), 0u);
  // Deeper X-buffering can only help the offload outer phase.
  EXPECT_LE(tuner.evaluate(c3).makespan, tuner.evaluate(c2).makespan);
}

// --- search ------------------------------------------------------------------

TEST(TuneSearch, DeterministicAcrossRuns) {
  tune::Workload w;
  w.n = 384;
  w.ranks = 8;
  w.ranks_per_node = 4;
  tune::Tuner t1(w), t2(w);
  const tune::TuneReport r1 = t1.run();
  const tune::TuneReport r2 = t2.run();
  EXPECT_TRUE(r1.winner == r2.winner);
  EXPECT_EQ(r1.winner_eval.makespan, r2.winner_eval.makespan);
  EXPECT_EQ(r1.winner_eval.stall_seconds, r2.winner_eval.stall_seconds);
  EXPECT_EQ(r1.evaluated, r2.evaluated);
  EXPECT_EQ(r1.dimension_order, r2.dimension_order);
  EXPECT_FALSE(r1.dimension_order.empty());
  EXPECT_GT(r1.space_size, r1.evaluated);
}

TEST(TuneSearch, WinnerPredictionMatchesFreshDes) {
  tune::Workload w;
  w.n = 384;
  w.ranks = 8;
  w.ranks_per_node = 4;
  tune::Tuner tuner(w);
  const tune::TuneReport r = tuner.run();
  // The winner's stored Eval must equal a from-scratch DES evaluation of
  // the same candidate EXACTLY — the report's prediction is the DES, not
  // an extrapolation.
  tune::Tuner fresh(w);
  const tune::Eval& e = fresh.evaluate(r.winner);
  EXPECT_EQ(e.makespan, r.winner_eval.makespan);
  EXPECT_EQ(e.stall_seconds, r.winner_eval.stall_seconds);
  EXPECT_EQ(e.wire_bytes, r.winner_eval.wire_bytes);
  EXPECT_EQ(e.objective, r.winner_eval.objective);
}

TEST(TuneSearch, LowerBoundNeverExceedsDesMakespan) {
  tune::Workload w;
  w.n = 256;
  w.ranks = 4;
  w.ranks_per_node = 2;
  tune::Tuner tuner(w);
  // Pruning soundness: the closed-form bound must under-estimate every
  // candidate the DES actually costs, else the search could discard the
  // true optimum.
  for (sched::Variant v : tuner.variants()) {
    for (std::size_t b : tuner.blocks()) {
      tune::Candidate c;
      c.variant = v;
      c.placement.pr = 2;
      c.placement.pc = 2;
      c.block = b;
      if (!tuner.feasible(c)) continue;
      EXPECT_LE(tuner.lower_bound(c), tuner.evaluate(c).makespan)
          << c.name();
    }
  }
}

TEST(TuneSearch, SeedIsNeverBeatenByItself) {
  tune::Workload w;
  w.n = 384;
  w.ranks = 8;
  w.ranks_per_node = 4;
  tune::Tuner tuner(w);
  const tune::TuneReport r = tuner.run();
  // Greedy descent only ever replaces the incumbent with a strictly
  // better objective, so the winner is at least as good as the seed.
  EXPECT_LE(r.winner_eval.objective, r.seed_eval.objective);
}

TEST(TuneTelemetry, PublishesTuneSeries) {
  tune::Workload w;
  w.n = 192;
  w.ranks = 4;
  w.ranks_per_node = 2;
  tune::TuneOptions topt;
  telemetry::Registry reg;
  topt.metrics = &reg;
  tune::Tuner tuner(w, topt);
  const tune::TuneReport r = tuner.run();
  EXPECT_EQ(reg.gauge("tune.predicted_makespan").value(),
            r.winner_eval.makespan);
  EXPECT_EQ(reg.gauge("tune.stall_share", "schedule=default").value(),
            r.seed_eval.stall_share);
  EXPECT_EQ(reg.counter("tune.candidates_evaluated").value(), r.evaluated);
  EXPECT_EQ(reg.counter("tune.cache_hits").value(), r.cache_hits);
}

// --- manifest ----------------------------------------------------------------

TEST(Manifest, RoundTripsThroughJson) {
  tune::Manifest m;
  tune::ManifestEntry e;
  e.workload.n = 49152;
  e.workload.ranks = 48;
  e.workload.ranks_per_node = 12;
  e.stall_weight = 1.0;
  e.winner.variant = sched::Variant::kPipelined;
  e.winner.placement.tiled = true;
  e.winner.placement.pr = 4;
  e.winner.placement.pc = 6;
  e.winner.placement.kr = 2;
  e.winner.placement.kc = 2;
  e.winner.block = 256;
  e.predicted_makespan = 1.5;
  e.predicted_stall_share = 0.54;
  e.default_makespan = 1.62;
  e.default_stall_share = 0.80;
  m.put(e);
  tune::ManifestEntry e2 = e;
  e2.stall_weight = 0.0;  // same workload, different objective: own row
  e2.winner.variant = sched::Variant::kAsync;
  e2.winner.placement.tiled = false;
  m.put(e2);

  tune::Manifest back;
  std::string err;
  ASSERT_TRUE(tune::read_manifest(tune::write_manifest(m), &back, &err))
      << err;
  ASSERT_EQ(back.entries.size(), 2u);
  const tune::ManifestEntry* hit = back.find(e.workload, 1.0);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->winner == e.winner);
  EXPECT_EQ(hit->predicted_makespan, e.predicted_makespan);
  EXPECT_EQ(hit->default_stall_share, e.default_stall_share);
  const tune::ManifestEntry* hit0 = back.find(e.workload, 0.0);
  ASSERT_NE(hit0, nullptr);
  EXPECT_TRUE(hit0->winner == e2.winner);
  EXPECT_EQ(back.find(e.workload, 0.5), nullptr);

  // put() overwrites on key match rather than duplicating.
  tune::ManifestEntry e3 = e;
  e3.winner.block = 512;
  back.put(e3);
  EXPECT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.find(e.workload, 1.0)->winner.block, 512u);
}

TEST(Manifest, RowsKeyedByTrackPathsStillLoad) {
  // Manifests written while paths runs had their own schedule carry a
  // "track_paths" key. Such a row loads as the workload's values row,
  // unless the file also holds a values row for the same key, which wins
  // whatever the order.
  const auto row = [](bool paths, const char* variant) {
    return std::string("{\"n\": 96, \"ranks\": 4, \"ranks_per_node\": 2, "
                       "\"word_bytes\": 4, \"track_paths\": ") +
           (paths ? "true" : "false") +
           ", \"stall_weight\": 1, \"variant\": \"" + variant +
           "\", \"tiled\": false, \"pr\": 2, \"pc\": 2, \"kr\": 1, "
           "\"kc\": 1, \"block\": 16, \"streams\": 3, "
           "\"predicted_makespan\": 1, \"predicted_stall_share\": 0, "
           "\"default_makespan\": 1, \"default_stall_share\": 0}";
  };
  tune::Workload w;
  w.n = 96;
  w.ranks = 4;
  w.ranks_per_node = 2;
  tune::Manifest m;
  std::string err;
  ASSERT_TRUE(tune::read_manifest(
      "{\"version\": 1, \"entries\": [" + row(true, "baseline") + "]}", &m,
      &err))
      << err;
  ASSERT_NE(m.find(w, 1.0), nullptr);
  EXPECT_EQ(m.find(w, 1.0)->winner.variant, sched::Variant::kBaseline);
  for (const bool values_first : {false, true}) {
    const std::string a = row(true, "baseline"), b = row(false, "pipelined");
    ASSERT_TRUE(tune::read_manifest(
        "{\"version\": 1, \"entries\": [" + (values_first ? b : a) + ", " +
            (values_first ? a : b) + "]}",
        &m, &err))
        << err;
    ASSERT_EQ(m.entries.size(), 1u);
    EXPECT_EQ(m.find(w, 1.0)->winner.variant, sched::Variant::kPipelined);
  }
  EXPECT_FALSE(tune::read_manifest(
      "{\"version\": 1, \"entries\": [" +
          std::string(row(true, "async")).replace(
              row(true, "async").find("true"), 4, "1") +
          "]}",
      &m, &err));
  EXPECT_NE(err.find("track_paths"), std::string::npos) << err;
}

TEST(Manifest, RejectsMalformedDocuments) {
  tune::Manifest m;
  std::string err;
  EXPECT_FALSE(tune::read_manifest("{", &m, &err));
  EXPECT_FALSE(tune::read_manifest("[]", &m, &err));
  EXPECT_FALSE(tune::read_manifest("{\"version\": 2, \"entries\": []}", &m,
                                   &err));
  EXPECT_FALSE(tune::read_manifest(
      "{\"version\": 1, \"entries\": [{\"n\": 4}]}", &m, &err));
  // Unknown variant names must fail loudly, not default.
  EXPECT_FALSE(tune::read_manifest(
      "{\"version\": 1, \"entries\": [{\"n\": 96, \"ranks\": 4, "
      "\"ranks_per_node\": 2, \"word_bytes\": 4, \"stall_weight\": 1, "
      "\"variant\": \"warp\", \"tiled\": false, \"pr\": 2, \"pc\": 2, "
      "\"kr\": 1, \"kc\": 1, \"block\": 16, \"streams\": 3, "
      "\"predicted_makespan\": 1, \"predicted_stall_share\": 0, "
      "\"default_makespan\": 1, \"default_stall_share\": 0}]}",
      &m, &err));
  EXPECT_NE(err.find("variant"), std::string::npos);

  // Integral fields that are not finite, whole and in range are rejected
  // by name, never cast. Each case edits one field of a valid row.
  const auto doc = [](const std::string& field, const std::string& value) {
    const std::vector<std::pair<std::string, std::string>> row = {
        {"n", "96"},         {"ranks", "4"},  {"ranks_per_node", "2"},
        {"word_bytes", "4"}, {"pr", "2"},     {"pc", "2"},
        {"kr", "1"},         {"kc", "1"},     {"block", "16"},
        {"streams", "3"}};
    std::string out =
        "{\"version\": 1, \"entries\": [{\"stall_weight\": 1, "
        "\"variant\": \"async\", \"tiled\": false, "
        "\"predicted_makespan\": 1, \"predicted_stall_share\": 0, "
        "\"default_makespan\": 1, \"default_stall_share\": 0";
    for (const auto& [k, v] : row)
      out += ", \"" + k + "\": " + (k == field ? value : v);
    return out + "}]}";
  };
  ASSERT_TRUE(tune::read_manifest(doc("", ""), &m, &err)) << err;
  const std::pair<const char*, const char*> bad[] = {
      {"n", "-5"},     {"ranks", "1e300"}, {"pr", "2.5"},
      {"pc", "-3"},    {"block", "1e30"},  {"n", "18446744073709551616"},
      {"kr", "0"},     {"streams", "1e999"}};
  for (const auto& [field, value] : bad) {
    err.clear();
    EXPECT_FALSE(tune::read_manifest(doc(field, value), &m, &err))
        << field << " = " << value;
    EXPECT_NE(err.find(std::string("\"") + field + "\""), std::string::npos)
        << err;
  }
}

/// A two-row manifest document, trailing whitespace removed so that its
/// last byte is the root object's closing brace.
std::string two_row_manifest() {
  tune::Manifest m;
  tune::ManifestEntry e;
  e.workload.n = 96;
  e.workload.ranks = 4;
  e.workload.ranks_per_node = 2;
  e.winner.variant = sched::Variant::kAsync;
  e.winner.placement.pr = 2;
  e.winner.placement.pc = 2;
  e.winner.block = 16;
  e.predicted_makespan = 0.125;
  e.predicted_stall_share = 0.25;
  e.default_makespan = 0.5;
  e.default_stall_share = 0.75;
  m.put(e);
  e.stall_weight = 0.0;
  e.winner.variant = sched::Variant::kPipelined;
  m.put(e);
  std::string doc = tune::write_manifest(m);
  while (!doc.empty() && std::isspace(static_cast<unsigned char>(doc.back())))
    doc.pop_back();
  return doc;
}

TEST(Manifest, EveryTruncationIsRejected) {
  const std::string doc = two_row_manifest();
  tune::Manifest m;
  std::string err;
  ASSERT_TRUE(tune::read_manifest(doc, &m, &err)) << err;
  ASSERT_EQ(m.entries.size(), 2u);
  for (std::size_t len = 0; len < doc.size(); ++len) {
    err.clear();
    EXPECT_FALSE(tune::read_manifest(doc.substr(0, len), &m, &err))
        << "prefix of " << len << " bytes parsed";
    EXPECT_FALSE(err.empty()) << "prefix of " << len << " bytes";
  }
}

TEST(Manifest, ByteFlipsNeverCrash) {
  // Hostile bytes anywhere: each flip is rejected with a diagnostic or
  // parses into rows, never undefined behaviour (run under UBSan/ASan by
  // check.sh --san).
  const std::string doc = two_row_manifest();
  std::size_t rejected = 0;
  for (std::size_t at = 0; at < doc.size(); ++at)
    for (const unsigned char mask : {0x01, 0x20, 0x80, 0xff}) {
      std::string bad = doc;
      bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) ^ mask);
      tune::Manifest m;
      std::string err;
      if (!tune::read_manifest(bad, &m, &err)) {
        ++rejected;
        EXPECT_FALSE(err.empty()) << "byte " << at << " ^ " << int{mask};
      }
    }
  EXPECT_GT(rejected, 0u);
}

// --- solve() front door: kAuto -----------------------------------------------

class AutoSolve : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = std::getenv("PARFW_TUNE_CACHE") != nullptr
                ? std::string(std::getenv("PARFW_TUNE_CACHE"))
                : std::string();
    had_prev_ = std::getenv("PARFW_TUNE_CACHE") != nullptr;
    unsetenv("PARFW_TUNE_CACHE");
  }
  void TearDown() override {
    if (had_prev_)
      setenv("PARFW_TUNE_CACHE", prev_.c_str(), 1);
    else
      unsetenv("PARFW_TUNE_CACHE");
  }

  static ApspOptions auto_options() {
    ApspOptions opt;
    opt.algorithm = ApspAlgorithm::kDistributed;
    opt.dist.variant = sched::Variant::kAuto;
    opt.dist.grid_rows = 2;
    opt.dist.grid_cols = 2;
    opt.dist.ranks_per_node = 2;
    return opt;
  }

 private:
  std::string prev_;
  bool had_prev_ = false;
};

TEST_F(AutoSolve, BitIdenticalToExplicitWinningVariant) {
  const Graph g = gen::erdos_renyi(96, 0.15, 11);
  const ApspOptions opt = auto_options();
  const auto auto_result = solve<MinPlus<double>>(g, opt);

  // Resolve the same workload through the tuner directly and run the
  // winner EXPLICITLY: the auto path must be pure sugar over it.
  const tune::ManifestEntry entry =
      resolve_auto(opt.dist, 96, sizeof(double));
  ApspOptions explicit_opt = opt;
  explicit_opt.dist = apply_winner(opt.dist, entry.winner);
  explicit_opt.block_size = entry.winner.block;
  explicit_opt.dist.oog_streams =
      static_cast<std::size_t>(entry.winner.streams);
  ASSERT_NE(explicit_opt.dist.variant, sched::Variant::kAuto);
  const auto explicit_result = solve<MinPlus<double>>(g, explicit_opt);

  ASSERT_EQ(auto_result.dist.rows(), explicit_result.dist.rows());
  for (std::size_t i = 0; i < auto_result.dist.rows(); ++i)
    for (std::size_t j = 0; j < auto_result.dist.cols(); ++j)
      ASSERT_EQ(std::memcmp(&auto_result.dist(i, j),
                            &explicit_result.dist(i, j), sizeof(double)),
                0)
          << "auto diverged from the explicit winner at (" << i << "," << j
          << ")";
}

TEST_F(AutoSolve, ManifestCacheFillAndReuse) {
  const std::string path =
      ::testing::TempDir() + "/parfw_tune_cache_test.json";
  std::remove(path.c_str());
  setenv("PARFW_TUNE_CACHE", path.c_str(), 1);

  const Graph g = gen::erdos_renyi(96, 0.15, 11);
  ApspOptions opt = auto_options();
  telemetry::Registry reg;
  opt.dist.metrics = &reg;

  // First run searches and persists.
  const auto first = solve<MinPlus<double>>(g, opt);
  EXPECT_EQ(reg.counter("tune.manifest_hits").value(), 0u);
  EXPECT_GT(reg.counter("tune.candidates_evaluated").value(), 0u);
  EXPECT_GT(reg.gauge("tune.achieved_seconds").value(), 0.0);
  tune::Manifest m;
  std::string err;
  ASSERT_TRUE(tune::read_manifest_file(path, &m, &err)) << err;
  ASSERT_EQ(m.entries.size(), 1u);

  // Second run answers from the manifest — no fresh search — and the
  // result is bit-identical.
  telemetry::Registry reg2;
  opt.dist.metrics = &reg2;
  const auto second = solve<MinPlus<double>>(g, opt);
  EXPECT_EQ(reg2.counter("tune.manifest_hits").value(), 1u);
  EXPECT_EQ(reg2.counter("tune.candidates_evaluated").value(), 0u);
  for (std::size_t i = 0; i < first.dist.rows(); ++i)
    for (std::size_t j = 0; j < first.dist.cols(); ++j)
      ASSERT_EQ(first.dist(i, j), second.dist(i, j));

  // A corrupt cache must be a hard error, not a silent re-tune.
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"version\": 1, \"entries\": ", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)solve<MinPlus<double>>(g, opt), check_error);
  std::remove(path.c_str());
}

// --- the headline regression (BENCH_cp.json workload) ------------------------

TEST(TuneRegression, ReferenceWorkloadStallShareCut) {
  // The BENCH_cp.json reference workload: n=49152 on 4 Summit nodes (48
  // ranks, 12 per node), default schedule async naive 6x8 b=768. The
  // candidate space is restricted to the decisive block sizes to keep
  // the test fast; bench_tune runs the full space (same winner family).
  tune::Workload w;
  w.n = 49152;
  w.ranks = 48;
  w.ranks_per_node = 12;
  tune::TuneOptions topt;
  topt.blocks = {128, 256, 768};
  tune::Tuner tuner(w, topt);
  const tune::TuneReport r = tuner.run();

  // Default reproduces the committed BENCH_cp baseline.
  EXPECT_TRUE(r.seed.variant == sched::Variant::kAsync);
  EXPECT_NEAR(r.seed_eval.makespan, 1.623833, 1e-5);
  EXPECT_NEAR(r.seed_eval.stall_share, 0.797348, 1e-5);

  // Acceptance: no slower, and >= 20% relative stall-share cut.
  EXPECT_LE(r.winner_eval.makespan, r.seed_eval.makespan);
  EXPECT_LE(r.winner_eval.stall_share, 0.80 * r.seed_eval.stall_share);
}

}  // namespace
}  // namespace parfw
