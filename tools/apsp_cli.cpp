// apsp — command-line all-pairs shortest paths.
//
// Usage:
//   apsp --input graph.el [--format el|gr] [--algorithm seq|blocked|parallel]
//        [--semiring minplus|maxmin] [--block N] [--paths]
//        [--components] [--query S,T ...] [--output dists.txt]
//   apsp --gen er --n 500 --p 0.1 --seed 1 ...
//   apsp --gen ... --paths --publish DIR [--publish-grid PRxPC] --query 0,42
//   apsp --serve DIR [--paths] --query 0,42 --query 0,7 [--cache-mb N]
//
// Reads an edge-list ("n m" header then "src dst w" lines) or DIMACS .gr
// file, or generates a random graph; solves APSP; answers point queries
// and/or dumps the full matrix. --publish shards the solved result into a
// served tile manifest under DIR; --serve answers the queries from such a
// manifest through serve::PathService — no solve, no full-matrix load.
// All queries flow through the one batched query API (core/query.hpp).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/apsp.hpp"
#include "core/component_apsp.hpp"
#include "dist/solve.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "monitor/monitor.hpp"
#include "sched/trace.hpp"
#include "serve/path_service.hpp"
#include "serve/publish.hpp"
#include "serve/slo.hpp"
#include "telemetry/export.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace parfw;

namespace {

void print_usage() {
  std::puts(
      "apsp - all-pairs shortest paths\n"
      "  --input FILE        edge-list or DIMACS graph\n"
      "  --format el|gr      input format (default el)\n"
      "  --gen er|grid|pa    generate instead of reading\n"
      "  --n N --p P --seed S   generator parameters\n"
      "  --algorithm seq|blocked|parallel|dist   (default parallel)\n"
      "  --semiring minplus|maxmin          (default minplus)\n"
      "  --block N           block size (default 64)\n"
      "  --dist PRxPC        process grid for --algorithm dist (default 2x2;\n"
      "                      requires n divisible by --block)\n"
      "  --variant baseline|pipelined|async|offload|auto   dist schedule\n"
      "                      (default async; auto tunes variant, placement,\n"
      "                      block and offload depth through the DES — the\n"
      "                      grid then only fixes the rank count; set\n"
      "                      PARFW_TUNE_CACHE=FILE to persist/reuse winners)\n"
      "  --rpn N             ranks per node for dist (NIC accounting and the\n"
      "                      auto tuner's placement space; default 1)\n"
      "  --paths             track predecessors (enables path queries);\n"
      "                      composes with every algorithm, including dist\n"
      "                      (any variant or auto) and checkpoint/restart\n"
      "  --components        solve per connected component\n"
      "  --query S,T         answer dist (and path) for the pair; repeatable\n"
      "                      — all pairs go through one batched query\n"
      "  --output FILE       write the full distance matrix\n"
      "  --publish DIR       after solving, publish the result as a served\n"
      "                      tile manifest under DIR (checkpoint-v3 blobs)\n"
      "  --publish-grid PRxPC   serving grid for --publish (default 1x1)\n"
      "  --serve DIR         answer --query from a published manifest in DIR\n"
      "                      (no solve; --paths needs a manifest published\n"
      "                      from a paths run)\n"
      "  --cache-mb N        --serve tile-cache byte budget (default 64)\n"
      "  --serve-trace FILE  write per-query span trees as a Chrome trace\n"
      "                      (inspect with trace_analyze --mode serve)\n"
      "  --monitor[=SECS]    live progress/ETA lines on stderr every SECS\n"
      "                      (default 1.0) plus anomaly triggers (overrun,\n"
      "                      straggler, retransmit storm, SLO burn); stdout\n"
      "                      stays byte-identical. dist and --serve only\n"
      "  --flight-recorder PATH   always-on bounded trace ring; the final\n"
      "                      window lands at PATH (Chrome trace) and each\n"
      "                      anomaly dumps PATH.incident-N.trace.json plus\n"
      "                      a PATH.incidents.jsonl blame record (load with\n"
      "                      trace_analyze --incidents)\n"
      "  --slo-p99-ms MS     p99 latency target: prints the SLO report\n"
      "                      (rolling p50/p99, violations, burn rate)\n"
      "  --slow-log N        keep the N most recent over-target queries\n"
      "                      with full stage breakdowns (default off)\n");
}

/// Parse every --query occurrence into one batch; exits via check_error
/// on a malformed pair.
QueryBatch parse_queries(const CliArgs& args, bool want_paths) {
  QueryBatch batch;
  batch.want_paths = want_paths;
  for (const std::string& spec : args.get_all("query")) {
    long long s = 0, d = 0;
    char comma = 0;
    std::istringstream in(spec);
    PARFW_CHECK_MSG(in >> s >> comma >> d && comma == ',',
                    "bad --query '" << spec << "' (expected S,T)");
    batch.add(s, d);
  }
  return batch;
}

template <typename T>
void print_results(const QueryBatch& batch,
                   const std::vector<QueryResult<T>>& results) {
  for (std::size_t i = 0; i < batch.pairs.size(); ++i) {
    const PathQuery& q = batch.pairs[i];
    const QueryResult<T>& r = results[i];
    std::printf("dist(%lld, %lld) = %g\n", static_cast<long long>(q.src),
                static_cast<long long>(q.dst),
                static_cast<double>(r.distance));
    if (!batch.want_paths) continue;
    if (r.status == PathStatus::kUnreachable) {
      std::printf("path: unreachable\n");
    } else if (r.status == PathStatus::kFound) {
      std::printf("path:");
      for (auto v : r.path) std::printf(" %lld", static_cast<long long>(v));
      std::printf("\n");
    }
  }
}

template <typename S>
int serve_queries(const CliArgs& args) {
  FileCheckpointStore store(args.get("serve", ""));
  serve::ServeOptions sopt;
  sopt.cache_budget_bytes =
      static_cast<std::size_t>(args.get_int("cache-mb", 64)) << 20;

  // Serve metrics always flow through a telemetry registry: the global
  // one when PARFW_METRICS is set (dump_env exports it in the requested
  // format at exit), a local one otherwise — whose table rendering IS the
  // stderr cache summary.
  telemetry::Registry local;
  sopt.metrics =
      telemetry::enabled() ? &telemetry::Registry::global() : &local;

  // Flight recorder: qtrace events also land in a bounded ring, and the
  // SLO burn alert below dumps its window as an incident.
  std::optional<sched::RingTraceSink> ring;
  std::optional<monitor::IncidentLog> incidents;
  const std::string fr_path = args.get("flight-recorder", "");
  if (args.has("monitor") || !fr_path.empty()) {
    ring.emplace();
    monitor::IncidentConfig icfg;
    icfg.path_prefix = fr_path;
    icfg.log_out = stderr;
    incidents.emplace(icfg, &*ring);
  }

  sched::CollectTraceSink trace;
  sched::TeeTraceSink tee;
  if (args.has("serve-trace")) tee.add(&trace);
  if (ring.has_value()) tee.add(&*ring);
  if (args.has("serve-trace") || ring.has_value()) sopt.trace = &tee;

  serve::SloMonitor* slo = nullptr;
  serve::SloMonitor slo_storage;
  const double p99_ms = args.get_double("slo-p99-ms", 0.0);
  const auto slow_log = args.get_int("slow-log", 0);
  if (p99_ms > 0.0 || slow_log > 0) {
    serve::SloConfig scfg;
    scfg.p99_target_s = p99_ms * 1e-3;
    if (slow_log > 0)
      scfg.slow_log_capacity = static_cast<std::size_t>(slow_log);
    if (incidents.has_value()) {
      monitor::IncidentLog* ilog = &*incidents;
      scfg.on_burn_alert = [ilog](const serve::SloReport& r) {
        std::ostringstream d;
        d << "burn rate " << r.burn_rate << " over " << r.window_count
          << "-query window (p99 " << r.p99 * 1e3 << " ms vs "
          << r.p99_target * 1e3 << " ms target)";
        ilog->fire("slo_burn", sched::now_seconds(), -1, d.str());
      };
    }
    slo_storage = serve::SloMonitor(scfg);
    slo = &slo_storage;
    sopt.slo = slo;
  }

  serve::PathService<S> service(store, sopt);
  const QueryBatch batch = parse_queries(args, args.get_bool("paths"));
  const auto results = service.answer(batch);
  print_results(batch, results);

  if (!telemetry::enabled())
    std::fputs(telemetry::to_table(local).c_str(), stderr);
  if (slo != nullptr) {
    slo->publish(*sopt.metrics);
    std::fputs(serve::format_slo_report(slo->report()).c_str(), stderr);
    if (slow_log > 0)
      std::fputs(serve::format_slow_log(*slo).c_str(), stderr);
  }
  if (args.has("serve-trace")) {
    const std::string path = args.get("serve-trace", "");
    std::ofstream os(path);
    PARFW_CHECK_MSG(os.good(), "cannot open --serve-trace " << path);
    trace.write_chrome(os);
    std::fprintf(stderr, "wrote %zu serve trace events to %s\n", trace.size(),
                 path.c_str());
  }
  if (ring.has_value() && !fr_path.empty()) {
    std::ofstream os(fr_path);
    PARFW_CHECK_MSG(os.good(), "cannot open --flight-recorder " << fr_path);
    ring->write_chrome(os);
    std::fprintf(stderr,
                 "[monitor] flight recorder: %zu events (%llu dropped) -> %s\n",
                 ring->size(), static_cast<unsigned long long>(ring->dropped()),
                 fr_path.c_str());
  }
  return 0;
}

template <typename S>
int run(const Graph& g, const CliArgs& args) {
  if (args.has("serve")) return serve_queries<S>(args);

  ApspOptions opt;
  const std::string alg =
      args.get("algorithm", args.has("dist") ? "dist" : "parallel");
  if (alg == "seq")
    opt.algorithm = ApspAlgorithm::kSequential;
  else if (alg == "blocked")
    opt.algorithm = ApspAlgorithm::kBlocked;
  else if (alg == "parallel")
    opt.algorithm = ApspAlgorithm::kBlockedParallel;
  else if (alg == "dist")
    opt.algorithm = ApspAlgorithm::kDistributed;
  else {
    std::fprintf(stderr, "unknown --algorithm '%s'\n", alg.c_str());
    return 2;
  }
  const std::int64_t block = args.get_int("block", 64);
  if (block < 1) {
    std::fprintf(stderr, "bad --block '%lld' (must be at least 1)\n",
                 static_cast<long long>(block));
    return 2;
  }
  opt.block_size = static_cast<std::size_t>(block);
  opt.track_paths = args.get_bool("paths");

  // Live monitoring + flight recorder ride the dist interpreter's
  // TraceSink/ScheduleObserver seams; everything prints to stderr so
  // stdout stays byte-identical to an unmonitored run.
  std::optional<sched::RingTraceSink> ring;
  std::optional<monitor::IncidentLog> incidents;
  std::optional<monitor::RunMonitor> mon;
  const std::string fr_path = args.get("flight-recorder", "");
  const bool want_monitor = args.has("monitor");
  if ((want_monitor || !fr_path.empty()) &&
      opt.algorithm != ApspAlgorithm::kDistributed)
    std::fprintf(stderr,
                 "[monitor] --monitor/--flight-recorder require "
                 "--algorithm dist; ignored\n");

  if (opt.algorithm == ApspAlgorithm::kDistributed) {
    int pr = 2, pc = 2;
    char x = 0;
    std::istringstream ds(args.get("dist", "2x2"));
    if (!(ds >> pr >> x >> pc) || x != 'x' || pr < 1 || pc < 1) {
      std::fprintf(stderr, "bad --dist (expected PRxPC, e.g. 2x2)\n");
      return 2;
    }
    opt.dist.grid_rows = pr;
    opt.dist.grid_cols = pc;
    const int rpn = args.get_int("rpn", 1);
    if (rpn < 1 || (pr * pc) % rpn != 0) {
      std::fprintf(stderr, "bad --rpn '%d' (must divide the %d ranks)\n", rpn,
                   pr * pc);
      return 2;
    }
    opt.dist.ranks_per_node = rpn;
    const std::string variant = args.get("variant", "async");
    if (!sched::variant_from_name(variant, &opt.dist.variant,
                                  /*allow_auto=*/true)) {
      std::fprintf(stderr,
                   "unknown --variant '%s' (valid: %s); see apsp --help\n",
                   variant.c_str(),
                   sched::variant_names(/*with_auto=*/true).c_str());
      return 2;
    }
    // tune.* (auto resolution) and fw.phase.* series land in the global
    // registry, so PARFW_METRICS=json|prom|table surfaces them below.
    if (telemetry::enabled())
      opt.dist.metrics = &telemetry::Registry::global();

    if (want_monitor || !fr_path.empty()) {
      ring.emplace();
      monitor::IncidentConfig icfg;
      icfg.path_prefix = fr_path;  // empty: incidents stay in memory
      icfg.log_out = stderr;
      incidents.emplace(icfg, &*ring);
      if (want_monitor) {
        monitor::MonitorConfig mcfg;
        const std::string interval = args.get("monitor", "");
        if (!interval.empty())
          mcfg.progress_interval_s = args.get_double("monitor", 1.0);
        mcfg.progress_out = stderr;
        if (telemetry::enabled())
          mcfg.metrics = &telemetry::Registry::global();
        mon.emplace(mcfg, &*ring, &*incidents);
        opt.dist.trace = &*mon;
        opt.dist.schedule_observer = &*mon;
      } else {
        opt.dist.trace = &*ring;  // recorder only, zero extra bookkeeping
      }
    }
  }

  Timer t;
  const auto result = args.get_bool("components")
                          ? component_apsp<S>(g, opt)
                          : solve<S>(g, opt);
  std::fprintf(stderr, "solved %lld vertices in %.3f s (%s)\n",
               static_cast<long long>(g.num_vertices()), t.seconds(),
               alg.c_str());

  if (mon.has_value()) mon->finish();
  if (ring.has_value() && !fr_path.empty()) {
    std::ofstream os(fr_path);
    PARFW_CHECK_MSG(os.good(), "cannot open --flight-recorder " << fr_path);
    ring->write_chrome(os);
    std::fprintf(stderr,
                 "[monitor] flight recorder: %zu events (%llu dropped) -> %s\n",
                 ring->size(), static_cast<unsigned long long>(ring->dropped()),
                 fr_path.c_str());
  }

  if (args.has("publish")) {
    int pr = 1, pc = 1;
    char x = 0;
    std::istringstream gs(args.get("publish-grid", "1x1"));
    if (!(gs >> pr >> x >> pc) || x != 'x' || pr < 1 || pc < 1) {
      std::fprintf(stderr, "bad --publish-grid (expected PRxPC)\n");
      return 2;
    }
    FileCheckpointStore store(args.get("publish", ""));
    serve::publish_result(store, result, opt.block_size, pr, pc);
    std::fprintf(stderr, "published %dx%d manifest to %s\n", pr, pc,
                 args.get("publish", "").c_str());
  }

  const QueryBatch batch = parse_queries(args, opt.track_paths);
  if (!batch.empty()) print_results(batch, result.answer(batch));

  if (args.has("output")) {
    std::ofstream out(args.get("output", ""));
    PARFW_CHECK_MSG(out.good(), "cannot open output file");
    const auto& m = result.dist;
    out << m.rows() << '\n';
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j)
        out << static_cast<double>(m(i, j)) << (j + 1 < m.cols() ? ' ' : '\n');
    }
    std::fprintf(stderr, "wrote %zux%zu matrix to %s\n", m.rows(), m.cols(),
                 args.get("output", "").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"input", "format", "gen", "n", "p", "seed",
                        "algorithm", "semiring", "block", "paths",
                        "components", "query", "output", "dist", "variant",
                        "rpn", "publish", "publish-grid", "serve", "cache-mb",
                        "serve-trace", "slo-p99-ms", "slow-log", "monitor",
                        "flight-recorder", "help"});
    if (args.get_bool("help") || argc == 1) {
      print_usage();
      return argc == 1 ? 2 : 0;
    }

    Graph g(0);
    if (args.has("serve")) {
      // Serving needs no graph: the manifest is the data.
    } else if (args.has("input")) {
      const std::string path = args.get("input", "");
      if (args.get("format", "el") == "gr") {
        std::ifstream in(path);
        PARFW_CHECK_MSG(in.good(), "cannot open " << path);
        g = io::read_dimacs(in);
      } else {
        g = io::read_edge_list_file(path);
      }
    } else if (args.has("gen")) {
      const auto n = args.get_int("n", 200);
      const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      const std::string kind = args.get("gen", "er");
      if (kind == "er")
        g = gen::erdos_renyi(n, args.get_double("p", 0.1), seed);
      else if (kind == "grid")
        g = gen::grid2d(static_cast<vertex_t>(std::max<std::int64_t>(1, n / 2)),
                        2, seed);
      else if (kind == "pa")
        g = gen::preferential_attachment(n, 3, seed);
      else {
        std::fprintf(stderr, "unknown --gen '%s'\n", kind.c_str());
        return 2;
      }
    } else {
      print_usage();
      return 2;
    }

    const std::string semiring = args.get("semiring", "minplus");
    int rc = 2;
    if (semiring == "minplus") {
      rc = run<MinPlus<double>>(g, args);
    } else if (semiring == "maxmin") {
      rc = run<MaxMin<double>>(g, args);
    } else {
      std::fprintf(stderr, "unknown --semiring '%s'\n", semiring.c_str());
    }
    // PARFW_METRICS=json|prom|table dumps the ambient telemetry series
    // (SRGEMM kernel dispatch) gathered during the solve.
    telemetry::dump_env(std::cerr);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
