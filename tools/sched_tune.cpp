// sched_tune — search the schedule-configuration space in the DES.
//
// Runs the causal-feedback autotuner (src/tune/, DESIGN.md §4.10) for one
// workload: every candidate — variant × rank placement × block size ×
// offload buffer depth — is costed by perf::build_fw_program +
// perf::simulate, blame-attributed through src/causal/, and the search is
// seeded/pruned by that attribution. Prints the tuning report; optionally
// persists the winner into a manifest (the PARFW_TUNE_CACHE format),
// emits google-benchmark JSON rows for scripts/bench_compare.py, and
// cross-checks the winner against a REAL mpisim run (perf::reconcile_run):
// wire bytes and compute-phase counts/flops must equal the DES EXACTLY.
//
// Usage:
//   sched_tune --n N --ranks P [--rpn R] [--word-bytes W]
//              [--stall-weight S] [--refine K]
//              [--blocks B1,B2,...]        restrict the block dimension
//              [--manifest FILE]           consult first, persist winner
//              [--force]                   re-tune even on a manifest hit
//              [--bench-json FILE]         tune/* rows (BENCH_tune.json)
//              [--validate]                real-run vs DES cross-check
//
// Exit status: 0 ok; 1 tuning/validation failure; 2 usage error.
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "perf/reconcile.hpp"
#include "tune/manifest.hpp"
#include "tune/tune.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace parfw;

namespace {

void print_usage() {
  std::puts(
      "sched_tune - causal-feedback schedule autotuner (DES search)\n"
      "  --n N               matrix dimension (vertices)\n"
      "  --ranks P           total ranks (the tuner picks the grid shape)\n"
      "  --rpn R             ranks per node (default 1)\n"
      "  --word-bytes W      matrix element size (default 4)\n"
      "  --stall-weight S    objective = makespan + S * critical-path stall\n"
      "                      seconds (default 1.0; 0 = pure makespan)\n"
      "  --refine K          greedy refinement rounds (default 2)\n"
      "  --blocks B1,B2,...  restrict block sizes (default: derived)\n"
      "  --manifest FILE     look the workload up first; persist the winner\n"
      "  --force             ignore a manifest hit, re-tune\n"
      "  --bench-json FILE   tune/* rows in google-benchmark JSON layout\n"
      "  --validate          run the winner on the REAL mpisim runtime and\n"
      "                      require its wire bytes and compute phases to\n"
      "                      equal the DES prediction exactly\n");
}

bool parse_blocks(const std::string& spec, std::vector<std::size_t>* out) {
  std::istringstream ss(spec);
  std::string part;
  while (std::getline(ss, part, ',')) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(part.c_str(), &end, 10);
    if (end == part.c_str() || *end != '\0' || v == 0) return false;
    out->push_back(static_cast<std::size_t>(v));
  }
  return !out->empty();
}

/// Run the winning schedule on the REAL mpisim runtime and in the DES
/// (perf::reconcile_run): wire bytes, internode bytes and every compute
/// phase's op count and flops must match exactly.
bool validate_winner(const tune::Workload& w, const tune::Candidate& win,
                     const tune::Eval& eval) {
  dist::DistFwOptions opt;
  opt.variant = win.variant;
  opt.block_size = win.block;
  opt.oog.num_streams = static_cast<std::size_t>(win.streams);

  Timer wall;
  const perf::ReconcileReport rep =
      perf::reconcile_run(win.placement.grid(), w.ranks_per_node, w.n, opt);
  const double real_seconds = wall.seconds();
  // The tuner priced the winner on its own build of the same schedule.
  const bool ok = rep.bytes_match() && rep.exact_mismatches().empty() &&
                  rep.modelled_wire.bytes_total == eval.wire_bytes;
  std::printf(
      "validate: real mpisim run of %s reconciled in %.3f s wall\n"
      "  wire bytes: real %lld vs DES %lld (internode %lld vs %lld), "
      "compute phases %s — %s\n"
      "  (DES-predicted makespan %.6f s is Summit-virtual time; the wall\n"
      "   time above is this host running the schedule and its replay)\n",
      win.name().c_str(), real_seconds,
      static_cast<long long>(rep.measured_wire.bytes_total),
      static_cast<long long>(rep.modelled_wire.bytes_total),
      static_cast<long long>(rep.measured_wire.bytes_internode),
      static_cast<long long>(rep.modelled_wire.bytes_internode),
      rep.exact_mismatches().empty() ? "exact" : "DIVERGE",
      ok ? "exact match" : "MISMATCH", eval.makespan);
  if (!ok) std::fputs(rep.table().c_str(), stdout);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"n", "ranks", "rpn", "word-bytes", "stall-weight",
                        "refine", "blocks", "manifest", "force", "bench-json",
                        "validate", "help"});
    if (args.get_bool("help") || argc == 1) {
      print_usage();
      return argc == 1 ? 2 : 0;
    }
    if (!args.has("n") || !args.has("ranks")) {
      std::fprintf(stderr, "sched_tune: --n and --ranks are required\n");
      return 2;
    }

    tune::Workload w;
    w.n = static_cast<std::size_t>(args.get_int("n", 0));
    w.ranks = static_cast<int>(args.get_int("ranks", 0));
    w.ranks_per_node = static_cast<int>(args.get_int("rpn", 1));
    w.word_bytes = static_cast<std::size_t>(args.get_int("word-bytes", 4));
    if (w.ranks <= 0 || w.ranks_per_node <= 0 ||
        w.ranks % w.ranks_per_node != 0) {
      std::fprintf(stderr, "sched_tune: --rpn must divide --ranks\n");
      return 2;
    }

    tune::TuneOptions topt;
    topt.stall_weight = args.get_double("stall-weight", 1.0);
    topt.refine_rounds = static_cast<int>(args.get_int("refine", 2));
    if (args.has("blocks") &&
        !parse_blocks(args.get("blocks", ""), &topt.blocks)) {
      std::fprintf(stderr, "sched_tune: bad --blocks (want B1,B2,...)\n");
      return 2;
    }

    // Manifest consult: an exact-key hit answers without a search.
    tune::Manifest manifest;
    const std::string manifest_path = args.get("manifest", "");
    bool have_file = false;
    if (!manifest_path.empty()) {
      if (std::ifstream probe(manifest_path); probe.good()) {
        std::string err;
        if (!tune::read_manifest_file(manifest_path, &manifest, &err)) {
          std::fprintf(stderr, "sched_tune: %s\n", err.c_str());
          return 1;
        }
        have_file = true;
      }
    }
    (void)have_file;

    tune::ManifestEntry entry;
    const tune::ManifestEntry* hit =
        manifest.find(w, topt.stall_weight);
    if (hit != nullptr && !args.get_bool("force")) {
      entry = *hit;
      std::printf("manifest hit: %s (predicted makespan %.6f s, stall "
                  "%.1f%%; default %.6f s, stall %.1f%%)\n",
                  entry.winner.name().c_str(), entry.predicted_makespan,
                  100.0 * entry.predicted_stall_share, entry.default_makespan,
                  100.0 * entry.default_stall_share);
    } else {
      tune::Tuner tuner(w, topt);
      const tune::TuneReport report = tuner.run();
      std::fputs(report.summary().c_str(), stdout);
      entry = tune::to_entry(report, topt.stall_weight);
      if (!manifest_path.empty()) {
        manifest.put(entry);
        std::string err;
        if (!tune::write_manifest_file(manifest_path, manifest, &err)) {
          std::fprintf(stderr, "sched_tune: %s\n", err.c_str());
          return 1;
        }
        std::printf("manifest: wrote winner to %s\n", manifest_path.c_str());
      }
    }

    if (args.has("bench-json")) {
      char buf[1024];
      std::snprintf(
          buf, sizeof buf,
          "{\n  \"context\": {\"source\": \"parfw sched_tune\"},\n"
          "  \"benchmarks\": [\n"
          "    {\"name\": \"tune/makespan_default\", \"run_type\": "
          "\"iteration\", \"real_time\": %.17g, \"time_unit\": \"s\", "
          "\"share\": %.17g},\n"
          "    {\"name\": \"tune/makespan_tuned\", \"run_type\": "
          "\"iteration\", \"real_time\": %.17g, \"time_unit\": \"s\", "
          "\"share\": %.17g},\n"
          "    {\"name\": \"tune/stall_default\", \"run_type\": "
          "\"iteration\", \"real_time\": %.17g, \"time_unit\": \"s\", "
          "\"share\": %.17g},\n"
          "    {\"name\": \"tune/stall_tuned\", \"run_type\": "
          "\"iteration\", \"real_time\": %.17g, \"time_unit\": \"s\", "
          "\"share\": %.17g}\n  ]\n}\n",
          entry.default_makespan, 1.0, entry.predicted_makespan,
          entry.predicted_makespan / entry.default_makespan,
          entry.default_makespan * entry.default_stall_share,
          entry.default_stall_share,
          entry.predicted_makespan * entry.predicted_stall_share,
          entry.predicted_stall_share);
      if (!write_output_file(args.get("bench-json", ""),
                             [&](std::ostream& os) { os << buf; }))
        return 1;
      std::printf("bench-json: wrote tune/* rows to %s\n",
                  args.get("bench-json", "").c_str());
    }

    if (args.get_bool("validate")) {
      // Re-derive the winner's Eval (cache-fresh tuner instance is fine:
      // the DES is deterministic) so wire_bytes is available even on the
      // manifest-hit path, then cross-check against the real runtime.
      tune::Tuner verifier(w, topt);
      const tune::Eval& eval = verifier.evaluate(entry.winner);
      if (!validate_winner(w, entry.winner, eval)) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
