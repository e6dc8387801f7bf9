// trace_dump — execute one ParallelFw variant, real or simulated, and
// write the run's Chrome-trace JSON (load it in chrome://tracing or
// https://ui.perfetto.dev; see README "Tracing").
//
// All modes interpret the SAME schedule IR (src/sched/ir.hpp):
//   --mode real     runs dist::parallel_fw over the in-process mpisim
//                   runtime (threads as ranks) and records wall-clock op
//                   events plus per-message delivery instants;
//   --mode des      lowers the schedule for a Summit-scale cluster and
//                   records the discrete-event simulator's virtual
//                   timeline;
//   --mode metrics  runs BOTH interpreters over one schedule and prints
//                   the measured-vs-modelled reconciliation table
//                   (perf/reconcile.hpp): wire bytes must match the
//                   DES prediction exactly, compute phases must match in
//                   count and flops, and per-phase time shares are
//                   compared within --band. Exits non-zero when the
//                   exact checks fail. --metrics-json / --metrics-prom
//                   additionally export the run's metric registry.
//   --mode check    validates an existing trace file (--in): truncated
//                   or malformed JSON yields a clear diagnostic with the
//                   failure offset and a nonzero exit; with --out the
//                   validated trace is rewritten normalised (flow events
//                   regenerated from the matched send/recv pairs).
//
// All write paths go through write_output_file (util/cli.hpp), which
// verifies the stream after flushing — a full disk or closed pipe is an
// error, never a silently truncated document.
#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "causal/trace_io.hpp"
#include "dist/block_cyclic.hpp"
#include "dist/grid.hpp"
#include "dist/parallel_fw.hpp"
#include "perf/experiments.hpp"
#include "perf/reconcile.hpp"
#include "sched/trace.hpp"
#include "telemetry/export.hpp"
#include "util/cli.hpp"

using namespace parfw;

namespace {

void print_usage() {
  std::puts(
      "trace_dump - write a Chrome-trace JSON of one ParallelFw run\n"
      "  --mode real|des|metrics|check  execution mode (default real)\n"
      "  --variant V         baseline|pipelined|async|offload (default async)\n"
      "  --out FILE          output path (default trace.json)\n"
      "check mode (validate an existing trace file):\n"
      "  --in FILE           trace to validate; nonzero exit + diagnostic\n"
      "                      on truncated/malformed input; --out rewrites\n"
      "                      the validated trace normalised\n"
      "real mode:\n"
      "  --pr R --pc C       process grid (default 2x2)\n"
      "  --n N --block B     matrix size / block size (default 96 / 8)\n"
      "des mode:\n"
      "  --nodes N           cluster nodes (default 4)\n"
      "  --n N --block B     vertices / block size (default 65536 / 768)\n"
      "  --reordered         tiled (Figure 1) placement\n"
      "metrics mode (real + DES of one schedule, reconciled):\n"
      "  --pr R --pc C --n N --block B --reordered   as real mode\n"
      "  --band F            phase-share tolerance (default 0.25)\n"
      "  --metrics-json FILE write the metric registry as JSON\n"
      "  --metrics-prom FILE write the metric registry as Prometheus text\n");
}

int parse_variant(const std::string& name, dist::Variant* out) {
  // auto is a front-door request (parfw::solve resolves it through the
  // tuner); this tool replays one CONCRETE schedule.
  if (sched::variant_from_name(name, out, /*allow_auto=*/false)) return 0;
  std::fprintf(stderr, "unknown --variant '%s' (valid: %s)\n", name.c_str(),
               sched::variant_names().c_str());
  return 2;
}

int run_real(const CliArgs& args, dist::Variant variant,
             sched::CollectTraceSink& sink) {
  using S = MinPlus<float>;
  const int pr = static_cast<int>(args.get_int("pr", 2));
  const int pc = static_cast<int>(args.get_int("pc", 2));
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 96));
  const std::size_t b = static_cast<std::size_t>(args.get_int("block", 8));
  const auto grid = dist::GridSpec::row_major(pr, pc);

  dist::DistFwOptions opt;
  opt.variant = variant;
  opt.block_size = b;
  opt.trace = &sink;
  if (variant == dist::Variant::kOffload) {
    opt.oog.mx = opt.oog.nx = 2 * b;
    opt.oog.num_streams = 2;
  }

  mpi::RuntimeOptions ropt;
  ropt.node_model = grid.node_model(std::max(1, grid.size() / 2));
  ropt.trace = &sink;

  DenseEntryGen<float> gen(7, 0.85, 1.0f, 90.0f, /*integral=*/true);
  mpi::Runtime::run(
      grid.size(),
      [&](mpi::Comm& world) {
        dist::BlockCyclicMatrix<float> local(n, b, grid,
                                             grid.coord_of(world.rank()));
        local.fill(gen);
        world.barrier();
        dist::parallel_fw<S>(world, local, opt);
      },
      ropt);
  return 0;
}

int run_des(const CliArgs& args, dist::Variant variant,
            sched::CollectTraceSink& sink) {
  const perf::MachineConfig m = perf::MachineConfig::summit();
  const int nodes = static_cast<int>(args.get_int("nodes", 4));
  const double n = static_cast<double>(args.get_int("n", 65536));
  const double b = static_cast<double>(args.get_int("block", 768));
  const perf::GridSetup setup =
      perf::make_grid(m, nodes, args.get_bool("reordered"));
  const perf::RunPoint p = perf::simulate_fw_placement(
      m, variant, setup, nodes, n, b, /*comm_only=*/false, &sink);
  std::fprintf(stderr, "simulated %.3f s makespan, %.2f PFLOP/s\n", p.seconds,
               p.pflops);
  return 0;
}

// Run the data-carrying interpreter and the DES over the SAME schedule
// (perf::reconcile_run) and print the side-by-side phase table. Exit
// status reflects the exact checks (wire bytes, compute counts/flops);
// share-band deviations are flagged in the table but do not fail the
// tool — absolute DES times model Summit GPUs, not this host.
int run_metrics(const CliArgs& args, dist::Variant variant) {
  const int pr = static_cast<int>(args.get_int("pr", 2));
  const int pc = static_cast<int>(args.get_int("pc", 2));
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 96));
  const std::size_t b = static_cast<std::size_t>(args.get_int("block", 8));
  const bool reordered = args.get_bool("reordered");
  const auto grid = reordered ? dist::GridSpec::tiled(pr, 1, 1, pc)
                              : dist::GridSpec::row_major(pr, pc);

  dist::DistFwOptions opt;
  opt.variant = variant;
  opt.block_size = b;
  if (variant == dist::Variant::kOffload) {
    opt.oog.mx = opt.oog.nx = 2 * b;
    opt.oog.num_streams = 2;
  }
  telemetry::Registry reg;
  perf::ReconcileReport rep =
      perf::reconcile_run(grid, std::max(1, grid.size() / 2), n, opt,
                          &reg);
  rep.share_band = args.get_double("band", 0.25);

  std::printf("variant %s, %dx%d grid (%s), n=%zu b=%zu\n",
              dist::variant_name(variant), pr, pc,
              reordered ? "tiled" : "row-major", n, b);
  std::fputs(rep.table().c_str(), stdout);

  // Registry exports (CI artifacts): live series plus the TrafficStats
  // snapshot.
  if (args.has("metrics-json") &&
      !write_output_file(args.get("metrics-json", ""), [&](std::ostream& os) {
        telemetry::to_json(reg, os);
      }))
    return 1;
  if (args.has("metrics-prom") &&
      !write_output_file(args.get("metrics-prom", ""), [&](std::ostream& os) {
        telemetry::to_prometheus(reg, os);
      }))
    return 1;

  const auto mismatches = rep.exact_mismatches();
  if (!rep.bytes_match()) {
    std::fprintf(stderr, "FAIL: wire bytes diverge from the DES prediction\n");
    return 1;
  }
  if (!mismatches.empty()) {
    std::fprintf(stderr, "FAIL: compute phases diverge:");
    for (const std::string& p : mismatches)
      std::fprintf(stderr, " %s", p.c_str());
    std::fputc('\n', stderr);
    return 1;
  }
  return 0;
}

// Validate (and optionally rewrite, normalised) an existing trace file.
// The loader is strict: truncated documents, syntax errors and events
// missing required fields are reported with the byte offset / event
// index of the failure and a nonzero exit — never a partial JSON.
int run_check(const CliArgs& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "--mode check needs --in FILE\n");
    return 2;
  }
  const causal::LoadResult loaded = causal::load_chrome_trace_file(in);
  if (!loaded.ok) {
    std::fprintf(stderr, "trace_dump: invalid trace: %s\n",
                 loaded.error.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: ok, %zu events\n", in.c_str(),
               loaded.events.size());
  if (args.has("out")) {
    sched::CollectTraceSink sink;
    for (const sched::TraceEvent& e : loaded.events) sink.record(e);
    const std::string out = args.get("out", "");
    if (!write_output_file(
            out, [&](std::ostream& os) { sink.write_chrome(os); }))
      return 1;
    std::fprintf(stderr, "rewrote %zu events to %s\n", loaded.events.size(),
                 out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"mode", "variant", "out", "in", "pr", "pc", "n", "block",
                      "nodes", "reordered", "band", "metrics-json",
                      "metrics-prom", "help"});
  if (args.get_bool("help")) {
    print_usage();
    return 0;
  }
  const std::string mode = args.get("mode", "real");
  if (mode == "check") return run_check(args);
  dist::Variant variant = dist::Variant::kAsync;
  if (int rc = parse_variant(args.get("variant", "async"), &variant)) return rc;
  if (mode == "metrics") return run_metrics(args, variant);

  sched::CollectTraceSink sink;
  int rc;
  if (mode == "real")
    rc = run_real(args, variant, sink);
  else if (mode == "des")
    rc = run_des(args, variant, sink);
  else {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 2;
  }
  if (rc != 0) return rc;

  const std::string out = args.get("out", "trace.json");
  if (!write_output_file(out,
                         [&](std::ostream& os) { sink.write_chrome(os); }))
    return 1;
  std::fprintf(stderr, "wrote %zu events to %s\n", sink.size(), out.c_str());
  return 0;
}
