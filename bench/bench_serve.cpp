// Serving-tier benchmark (DESIGN.md §4.12): publish one solved instance
// into an in-memory tile manifest, then replay synthetic query workloads
// through PathService and report tail latency and cache behaviour.
//
// Two workloads hit the same published manifest (n=768, b=64, 2x2 grid,
// paths tracked), each with a fresh service + registry so the numbers
// are per-workload:
//   * uniform  — every (src, dst) equally likely: the cache-hostile
//     floor, residency is pure capacity share;
//   * zipf-1.2 — skewed sources/destinations: the case the 2Q-style
//     second-touch admission is shaped for, hot block rows stay resident.
// The zipf-1.2 replay runs a second time against the same manifest
// published into a FileCheckpointStore (file zipf1.2), so cache misses
// are real positioned file reads plus the per-tile CRC check. Its cache
// decisions must equal the in-memory replay's: same workload, same tiles.
//
// The claims gated by BENCH_serve.json (scripts/check.sh --serve):
//   * p99 query latency does not regress (one-sided, loose tolerance —
//     wall-clock on shared CI hardware is noisy);
//   * the cache hit rates do not DRIFT (two-sided, tight tolerance —
//     cache decisions are deterministic under a fixed workload seed, so
//     any movement is a policy change, not noise);
//   * bytes_peak never exceeds the configured budget — enforced right
//     here with a hard exit, not a diffed number.
//
// PARFW_BENCH_JSON=FILE writes the serve/* rows this baseline pins.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/apsp.hpp"
#include "fig_common.hpp"
#include "graph/generators.hpp"
#include "serve/path_service.hpp"
#include "serve/publish.hpp"
#include "serve/workload.hpp"
#include "telemetry/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace parfw;

namespace {

using S = MinPlus<float>;

constexpr std::size_t kN = 768;
constexpr std::size_t kBlock = 64;
constexpr std::size_t kQueries = 30000;
// ~22% of the published footprint (144 value tiles x 16 KiB + 144 pred
// tiles x 32 KiB = 6.75 MiB): enough pressure that uniform traffic
// thrashes while the Zipf hot set fits.
constexpr std::size_t kBudget = std::size_t{3} << 19;  // 1.5 MiB

struct WorkloadResult {
  telemetry::HistogramSummary latency;
  serve::TileCacheStats cache;
  double wall_seconds = 0.0;
  // Per-stage latency attribution (qtrace): Σ seconds per stage and its
  // share of Σ query latency. route/cache/io/walk tile each query span,
  // so the shares sum to ~1 — checked below as the reconciliation gate.
  double stage_seconds[serve::kNumStages] = {};
  double stage_share[serve::kNumStages] = {};
};

WorkloadResult run_workload(const CheckpointStore& store, double zipf_s) {
  serve::WorkloadSpec spec;
  spec.n = kN;
  spec.queries = kQueries;
  spec.zipf_s = zipf_s;
  spec.seed = 17;
  const QueryBatch batch = serve::make_workload(spec);

  telemetry::Registry reg;
  serve::ServeOptions opt;
  opt.cache_budget_bytes = kBudget;
  opt.admission = serve::CacheAdmission::kSecondTouch;
  opt.metrics = &reg;
  serve::PathService<S> service(store, opt);

  WorkloadResult r;
  Timer wall;
  const auto results = service.answer(batch);
  r.wall_seconds = wall.seconds();
  if (results.size() != batch.size()) {
    std::fprintf(stderr, "answer() dropped queries\n");
    std::exit(1);
  }
  r.latency = reg.histogram("serve.query.latency").summary();
  r.cache = service.cache_stats();
  for (int s = 0; s < serve::kNumStages; ++s) {
    const std::string name =
        std::string("serve.stage.") +
        serve::stage_name(static_cast<serve::Stage>(s)) + ".latency";
    r.stage_seconds[s] = reg.histogram(name).sum();
    if (r.latency.sum > 0.0) r.stage_share[s] = r.stage_seconds[s] / r.latency.sum;
  }
  return r;
}

}  // namespace

int main() {
  bench::header(
      "serving tier: tile-backed path queries (PathService + TileCache)",
      "Not a paper figure: the serving layer answers point-to-point path\n"
      "queries from the published tile manifest without materialising the\n"
      "n x n matrices (paper §1 motivates APSP for routing services; this\n"
      "bench pins the query-side cost of that deployment mode).");

  std::printf("solving + publishing n=%zu b=%zu (2x2 grid, paths)...\n", kN,
              kBlock);
  const Graph g =
      gen::erdos_renyi(static_cast<vertex_t>(kN), /*density=*/0.05, /*seed=*/5);
  ApspOptions aopt;
  aopt.algorithm = ApspAlgorithm::kBlocked;
  aopt.block_size = kBlock;
  aopt.track_paths = true;
  Timer solve_t;
  const auto result = apsp<S>(g, aopt);
  MemoryCheckpointStore store;
  serve::publish_result(store, result, kBlock, /*grid_rows=*/2,
                        /*grid_cols=*/2);
  std::printf("solved + published in %.2f s; cache budget %.1f MiB\n\n",
              solve_t.seconds(), kBudget / (1024.0 * 1024.0));

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("parfw_bench_serve_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  FileCheckpointStore file_store(dir);
  serve::publish_result(file_store, result, kBlock, /*grid_rows=*/2,
                        /*grid_cols=*/2);

  struct Case {
    const char* name;
    double zipf_s;
    const CheckpointStore* store;
  };
  const Case cases[] = {{"uniform", 0.0, &store},
                        {"zipf1.2", 1.2, &store},
                        {"file_zipf1.2", 1.2, &file_store}};

  bench::BenchJson json;
  Table t({"workload", "queries", "p50 us", "p99 us", "hit %", "io %",
           "walk %", "evictions", "peak MiB", "qps"});
  bool budget_ok = true;
  bool reconciled = true;
  double hit_uniform = 0.0, hit_zipf = 0.0, hit_file = 0.0;
  for (const Case& c : cases) {
    const WorkloadResult r = run_workload(*c.store, c.zipf_s);
    budget_ok = budget_ok && r.cache.bytes_peak <= kBudget;
    (c.store == &file_store ? hit_file
                            : (c.zipf_s > 0.0 ? hit_zipf : hit_uniform)) =
        r.cache.hit_rate();
    t.add_row({c.name, std::to_string(kQueries),
               Table::num(r.latency.p50 * 1e6, 2),
               Table::num(r.latency.p99 * 1e6, 2),
               Table::num(100.0 * r.cache.hit_rate(), 1),
               Table::num(100.0 * r.stage_share[static_cast<int>(
                                      serve::Stage::kIo)], 1),
               Table::num(100.0 * r.stage_share[static_cast<int>(
                                      serve::Stage::kWalk)], 1),
               std::to_string(r.cache.evictions),
               Table::num(r.cache.bytes_peak / (1024.0 * 1024.0), 2),
               Table::num(kQueries / r.wall_seconds, 0)});
    const std::string base = std::string("serve/") + c.name;
    const bool gated = c.store != &file_store;
    // The file replay pins its p50 only: its hit rate is checked equal to
    // the in-memory replay's below, and its io share moves with the
    // host's page cache.
    json.add(base + "_p50", r.latency.p50, "latency_us", r.latency.p50 * 1e6);
    if (gated) {
      json.add(base + "_p99", r.latency.p99, "latency_us",
               r.latency.p99 * 1e6);
      json.add(base + "_hit_rate", 0.0, "hit_rate", r.cache.hit_rate());
    }
    // Stage attribution rows: real_time 0 keeps them out of the one-sided
    // wall-clock gate; the dedicated two-sided "share" compare pins them.
    double covered = 0.0;
    for (int s = 0; s < serve::kNumStages; ++s) {
      if (gated)
        json.add(base + "_stage_" +
                     serve::stage_name(static_cast<serve::Stage>(s)),
                 0.0, "share", r.stage_share[s]);
      covered += r.stage_share[s];
    }
    // Reconciliation: the stage intervals tile each query span, so their
    // summed shares must land within 1% of the latency histogram's sum.
    reconciled = reconciled && covered > 0.99 && covered < 1.01;
    std::printf("  %s stage shares sum to %.4f of serve.query.latency\n",
                c.name, covered);
  }
  std::printf("%s", t.str().c_str());
  std::filesystem::remove_all(dir);

  std::printf(
      "\nchecks:\n"
      "  bytes_peak <= budget (both workloads)  %s\n"
      "  zipf hit rate > uniform hit rate       %s (%.1f%% vs %.1f%%)\n"
      "  file store hit rate == memory store    %s\n"
      "  stage sums reconcile within 1%%         %s\n",
      budget_ok ? "yes" : "NO",
      hit_zipf > hit_uniform ? "yes" : "NO", 100.0 * hit_zipf,
      100.0 * hit_uniform, hit_file == hit_zipf ? "yes" : "NO",
      reconciled ? "yes" : "NO");
  if (!budget_ok) {
    std::fprintf(stderr, "tile cache exceeded its byte budget\n");
    return 1;
  }
  if (hit_zipf <= hit_uniform) {
    std::fprintf(stderr, "skewed workload did not beat the uniform floor\n");
    return 1;
  }
  if (hit_file != hit_zipf) {
    std::fprintf(stderr, "the file store replay made different cache "
                         "decisions than the memory store replay\n");
    return 1;
  }
  if (!reconciled) {
    std::fprintf(stderr,
                 "per-stage latency sums do not reconcile with "
                 "serve.query.latency\n");
    return 1;
  }
  bench::footer(
      "tail latency stays flat while the Zipf hot set turns capacity misses "
      "into hits under the same byte budget");
  return 0;
}
