// trace_analyze — turn a captured trace into a causal story (DESIGN.md
// §4.9): happens-before DAG, critical path, per-rank/per-phase blame,
// top-k blocking ops, and what-if re-costing under perturbed machine
// speeds.
//
// Input is either a Chrome-trace JSON file written by trace_dump /
// PARFW_TRACE (--trace FILE) or a fresh in-process DES replay (--des,
// with the same sizing flags as trace_dump's des mode). In --des mode
// the tool additionally cross-checks the acceptance invariant: the
// critical-path length must equal the DES makespan EXACTLY (the path
// segments partition the trace span by construction), and --what-if
// re-runs the DES on the scaled MachineConfig to confirm the analytic
// prediction end-to-end.
//
// Exit status: 0 ok; 1 analysis failure, band violation or broken
// invariant; 2 usage error.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "causal/analysis.hpp"
#include "causal/graph.hpp"
#include "causal/trace_io.hpp"
#include "perf/des.hpp"
#include "perf/experiments.hpp"
#include "perf/machine.hpp"
#include "sched/trace.hpp"
#include "serve/qtrace.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/cli.hpp"

using namespace parfw;

namespace {

void print_usage() {
  std::puts(
      "trace_analyze - causal analysis of a ParallelFw trace\n"
      "input (one of):\n"
      "  --trace FILE        Chrome-trace JSON (trace_dump --out / PARFW_TRACE)\n"
      "  --incidents FILE    flight-recorder incident report (the\n"
      "                      *.incidents.jsonl apsp --flight-recorder writes):\n"
      "                      prints each incident and re-runs the causal\n"
      "                      analysis over its dumped trace window\n"
      "  --des               replay the DES in-process:\n"
      "    --variant V       baseline|pipelined|async|offload (default async)\n"
      "    --nodes N         cluster nodes (default 4)\n"
      "    --n N --block B   vertices / block size (default 49152 / 768)\n"
      "    --reordered       tiled (Figure 1) placement\n"
      "  --mode M            solve (default) | serve: serve mode expects a\n"
      "                      query trace (apsp_cli --serve-trace), checks the\n"
      "                      per-query span trees tile, and prints latency\n"
      "                      quantiles + stage/tail attribution\n"
      "analyses:\n"
      "  --critical-path     print the critical path summary\n"
      "  --blame             print the blame report (per category/rank/phase)\n"
      "  --top K             straggler table size (default 10)\n"
      "  --what-if SPEC      re-cost the path, e.g. comm=2 or comm=2,compute=1.5\n"
      "                      (nic=, gemm= aliases; io= scales serve store reads;\n"
      "                      values are speedups)\n"
      "  --dot FILE          write the critical path as Graphviz\n"
      "outputs/gates:\n"
      "  --metrics-json FILE cp.* series as registry JSON\n"
      "  --bench-json FILE   cp shares in google-benchmark JSON layout\n"
      "  --band-file FILE    blame-share band document (JSON)\n"
      "  --band-set NAME     band set inside the file (default des)\n");
}

int parse_variant(const std::string& name, dist::Variant* out) {
  // auto is a front-door request (parfw::solve resolves it through the
  // tuner); this tool replays one CONCRETE schedule.
  if (sched::variant_from_name(name, out, /*allow_auto=*/false)) return 0;
  std::fprintf(stderr, "unknown --variant '%s' (valid: %s)\n", name.c_str(),
               sched::variant_names().c_str());
  return 2;
}

bool parse_what_if(const std::string& spec, causal::WhatIf* out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    char* end = nullptr;
    const double v = std::strtod(item.c_str() + eq + 1, &end);
    if (end == item.c_str() + eq + 1 || v <= 0.0) return false;
    if (key == "comm" || key == "nic" || key == "link")
      out->comm_speedup = v;
    else if (key == "compute" || key == "gemm" || key == "kernel")
      out->compute_speedup = v;
    else if (key == "io" || key == "store")
      out->io_speedup = v;
    else
      return false;
    pos = comma + 1;
  }
  return true;
}

/// cp share rows in the google-benchmark layout bench_compare.py reads.
void write_bench_json(std::ostream& os, const causal::BlameReport& r) {
  os.precision(15);
  os << "{\"benchmarks\":[";
  for (int c = 0; c < causal::kNumCategories; ++c) {
    const auto cat = static_cast<causal::Category>(c);
    if (c != 0) os << ",";
    os << "{\"name\":\"cp/" << causal::category_name(cat)
       << "\",\"run_type\":\"iteration\",\"share\":" << r.share(cat)
       << ",\"real_time\":" << r.category(cat) * 1e9 << "}";
  }
  os << "]}\n";
}

/// Gate the blame shares against a checked-in band document:
///   {"des": {"compute": [lo, hi], ...}, "real": {...}}
/// Categories absent from the band are unconstrained. Every key of the
/// set must name a category and hold two finite numbers lo <= hi: a
/// malformed entry is a usage error (exit 2), never a dropped gate.
int check_band(const std::string& path, const std::string& set,
               const causal::BlameReport& r) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "cannot open band file '%s'\n", path.c_str());
    return 2;
  }
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  causal::JsonValue doc;
  std::string err;
  if (!causal::parse_json(text, &doc, &err)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  const causal::JsonValue* bands = doc.find(set);
  if (bands == nullptr || bands->type != causal::JsonValue::Type::kObject) {
    std::fprintf(stderr, "%s: no band set '%s'\n", path.c_str(), set.c_str());
    return 2;
  }
  for (const auto& [key, band] : bands->obj) {
    bool known = false;
    for (int c = 0; c < causal::kNumCategories; ++c)
      known = known ||
              key == causal::category_name(static_cast<causal::Category>(c));
    const auto number = [](const causal::JsonValue& v) {
      return v.type == causal::JsonValue::Type::kNumber &&
             std::isfinite(v.number);
    };
    const bool bounds_ok = band.type == causal::JsonValue::Type::kArray &&
                           band.arr.size() == 2 && number(band.arr[0]) &&
                           number(band.arr[1]) &&
                           band.arr[0].number <= band.arr[1].number;
    if (!known || !bounds_ok) {
      std::fprintf(stderr, "%s: band set '%s', key '%s': %s\n", path.c_str(),
                   set.c_str(), key.c_str(),
                   !known ? "not a blame category"
                          : "want [lo, hi]: two finite numbers, lo <= hi");
      return 2;
    }
  }
  int violations = 0;
  for (int c = 0; c < causal::kNumCategories; ++c) {
    const auto cat = static_cast<causal::Category>(c);
    const causal::JsonValue* band = bands->find(causal::category_name(cat));
    if (band == nullptr) continue;
    const double lo = band->arr[0].number, hi = band->arr[1].number;
    const double share = r.share(cat);
    const bool ok = share >= lo && share <= hi;
    std::printf("band %-10s share %.4f in [%.4f, %.4f] %s\n",
                causal::category_name(cat), share, lo, hi,
                ok ? "ok" : "VIOLATION");
    if (!ok) ++violations;
  }
  if (violations > 0) {
    std::fprintf(stderr,
                 "trace_analyze: %d blame share(s) outside the '%s' band\n",
                 violations, set.c_str());
    return 1;
  }
  return 0;
}

/// Load, verify and summarise a flight-recorder incident report: every
/// JSONL record prints, and every referenced trace window (paths resolve
/// relative to the report file) must load and re-analyze cleanly — this
/// is the gate proving an incident dump is a self-contained postmortem.
int analyze_incidents(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "cannot open incident report '%s'\n", path.c_str());
    return 1;
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : path.substr(0, slash + 1);

  std::string line;
  std::size_t count = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++count;
    causal::JsonValue rec;
    std::string err;
    if (!causal::parse_json(line, &rec, &err)) {
      std::fprintf(stderr, "%s: incident %zu: %s\n", path.c_str(), count,
                   err.c_str());
      return 1;
    }
    const causal::JsonValue* kind = rec.find("kind");
    const causal::JsonValue* t = rec.find("t");
    const causal::JsonValue* hint = rec.find("hint_rank");
    const causal::JsonValue* blamed = rec.find("blamed_rank");
    const causal::JsonValue* detail = rec.find("detail");
    const causal::JsonValue* trace = rec.find("trace");
    if (kind == nullptr || t == nullptr || trace == nullptr) {
      std::fprintf(stderr, "%s: incident %zu: missing kind/t/trace fields\n",
                   path.c_str(), count);
      return 1;
    }
    std::printf("incident %zu: %s at t=%.6fs, trigger rank %d, blamed rank "
                "%d\n  %s\n",
                count, kind->str.c_str(), t->number,
                hint != nullptr ? static_cast<int>(hint->number) : -1,
                blamed != nullptr ? static_cast<int>(blamed->number) : -1,
                detail != nullptr ? detail->str.c_str() : "");
    if (trace->str.empty()) continue;  // in-memory incident, no dump
    const std::string tpath =
        trace->str.front() == '/' ? trace->str : dir + trace->str;
    causal::LoadResult loaded = causal::load_chrome_trace_file(tpath);
    if (!loaded.ok) {
      std::fprintf(stderr, "%s: incident %zu window: %s\n", path.c_str(),
                   count, loaded.error.c_str());
      return 1;
    }
    causal::BuildStats bstats;
    const causal::Graph g = causal::build_graph(loaded.events, &bstats);
    causal::BlameReport report;
    if (!causal::analyze(g, {}, &report, &err)) {
      std::fprintf(stderr, "%s: incident %zu window: %s\n", path.c_str(),
                   count, err.c_str());
      return 1;
    }
    std::printf("  window: %zu events, span %.6fs |", g.events.size(),
                report.span);
    for (int c = 0; c < causal::kNumCategories; ++c) {
      const auto cat = static_cast<causal::Category>(c);
      if (report.category(cat) > 0.0)
        std::printf(" %s %.1f%%", causal::category_name(cat),
                    100.0 * report.share(cat));
    }
    std::printf("\n");
  }
  if (count == 0) {
    std::fprintf(stderr, "%s: no incidents recorded\n", path.c_str());
    return 1;
  }
  std::printf("%zu incident(s), all windows load and analyze cleanly\n",
              count);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(
      argc, argv,
      {"trace", "des", "incidents", "variant", "nodes", "n", "block",
       "reordered", "mode", "critical-path", "blame", "top", "what-if", "dot",
       "metrics-json", "bench-json", "band-file", "band-set", "help"});
  if (args.get_bool("help")) {
    print_usage();
    return 0;
  }
  if (args.has("incidents")) return analyze_incidents(args.get("incidents", ""));
  const std::string mode = args.get("mode", "solve");
  if (mode != "solve" && mode != "serve") {
    std::fprintf(stderr, "unknown --mode '%s' (valid: solve, serve)\n",
                 mode.c_str());
    return 2;
  }
  const bool serve_mode = mode == "serve";
  const bool use_des = args.get_bool("des");
  const bool use_file = args.has("trace");
  if (use_des == use_file) {
    std::fprintf(stderr, "need exactly one of --trace FILE or --des\n");
    print_usage();
    return 2;
  }
  if (serve_mode && !use_file) {
    std::fprintf(stderr, "--mode serve needs --trace FILE (a query trace)\n");
    return 2;
  }

  // --- obtain the events ---------------------------------------------------
  causal::LoadResult loaded;  // owns name storage for file traces
  std::vector<sched::TraceEvent> events;
  double des_makespan = -1.0;
  dist::Variant variant = dist::Variant::kAsync;
  const perf::MachineConfig machine = perf::MachineConfig::summit();
  const int nodes = static_cast<int>(args.get_int("nodes", 4));
  const double n = static_cast<double>(args.get_int("n", 49152));
  const double b = static_cast<double>(args.get_int("block", 768));
  const bool reordered = args.get_bool("reordered");

  if (use_file) {
    loaded = causal::load_chrome_trace_file(args.get("trace", ""));
    if (!loaded.ok) {
      std::fprintf(stderr, "trace_analyze: %s\n", loaded.error.c_str());
      return 1;
    }
    events = loaded.events;
  } else {
    if (int rc = parse_variant(args.get("variant", "async"), &variant))
      return rc;
    sched::CollectTraceSink sink;
    const perf::GridSetup setup = perf::make_grid(machine, nodes, reordered);
    const perf::RunPoint p = perf::simulate_fw_placement(
        machine, variant, setup, nodes, n, b, /*comm_only=*/false, &sink);
    des_makespan = p.seconds;
    events = sink.events();
  }

  // --- serve mode: per-query span-tree aggregation -------------------------
  // Runs BEFORE build_graph consumes the event vector. The causal analysis
  // still runs afterwards — its category split (io vs compute vs comm via
  // Category::kIo) is the serve blame report.
  if (serve_mode) {
    const serve::ServeTraceReport sr = serve::analyze_serve_trace(events);
    std::fputs(
        serve::format_serve_report(sr, static_cast<int>(args.get_int("top", 10)))
            .c_str(),
        stdout);
    if (!sr.ok) {
      std::fprintf(stderr, "trace_analyze: serve trace check failed: %s\n",
                   sr.error.c_str());
      return 1;
    }
  }

  // --- build + analyze -----------------------------------------------------
  causal::BuildStats bstats;
  const causal::Graph g = causal::build_graph(std::move(events), &bstats);
  causal::AnalysisOptions aopt;
  aopt.top_k = static_cast<int>(args.get_int("top", 10));
  causal::BlameReport report;
  std::string err;
  if (!causal::analyze(g, aopt, &report, &err)) {
    std::fprintf(stderr, "trace_analyze: %s\n", err.c_str());
    return 1;
  }

  std::printf(
      "%zu events, %zu edges, %zu matched messages "
      "(%zu unmatched sends, %zu unmatched recvs), %zu barrier joins\n",
      g.events.size(), g.edges.size(), bstats.matched_messages,
      bstats.unmatched_sends, bstats.unmatched_recvs, bstats.joins);

  if (args.get_bool("critical-path") || args.get_bool("blame")) {
    std::printf("critical-path length: %.9f s\n", report.span);
    if (des_makespan >= 0.0) {
      std::printf("DES makespan:         %.9f s\n", des_makespan);
      if (report.span != des_makespan) {
        std::fprintf(stderr,
                     "trace_analyze: critical-path length diverges from the "
                     "DES makespan (%.17g vs %.17g)\n",
                     report.span, des_makespan);
        return 1;
      }
    }
  }
  if (args.get_bool("blame"))
    std::fputs(causal::format_report(g, report).c_str(), stdout);

  if (args.has("what-if")) {
    causal::WhatIf w;
    if (!parse_what_if(args.get("what-if", ""), &w)) {
      std::fprintf(stderr, "bad --what-if spec '%s'\n",
                   args.get("what-if", "").c_str());
      return 2;
    }
    const double predicted = causal::recost(report, w);
    std::printf("what-if (comm x%.3g, compute x%.3g, io x%.3g): predicted "
                "%.9f s (%.2f%% of observed)\n",
                w.comm_speedup, w.compute_speedup, w.io_speedup, predicted,
                report.span > 0.0 ? 100.0 * predicted / report.span : 0.0);
    if (use_des) {
      // Confirm end-to-end: re-run the DES on the scaled machine.
      perf::MachineConfig scaled = machine;
      scaled.nic_bw *= w.comm_speedup;
      scaled.intranode_bw *= w.comm_speedup;
      scaled.srgemm_flops *= w.compute_speedup;
      const perf::GridSetup setup = perf::make_grid(scaled, nodes, reordered);
      const perf::RunPoint p = perf::simulate_fw_placement(
          scaled, variant, setup, nodes, n, b, /*comm_only=*/false, nullptr);
      std::printf("what-if DES confirmation: %.9f s (prediction off by "
                  "%+.2f%%)\n",
                  p.seconds,
                  p.seconds > 0.0 ? 100.0 * (predicted - p.seconds) / p.seconds
                                  : 0.0);
    }
  }

  if (args.has("dot") &&
      !write_output_file(args.get("dot", ""), [&](std::ostream& os) {
        causal::write_dot(g, report, os);
      }))
    return 1;

  telemetry::Registry reg;
  causal::publish_blame(report, reg);
  if (args.has("metrics-json") &&
      !write_output_file(args.get("metrics-json", ""), [&](std::ostream& os) {
        telemetry::to_json(reg, os);
      }))
    return 1;
  if (args.has("bench-json") &&
      !write_output_file(args.get("bench-json", ""), [&](std::ostream& os) {
        write_bench_json(os, report);
      }))
    return 1;
  if (args.has("band-file"))
    return check_band(args.get("band-file", ""), args.get("band-set", "des"),
                      report);
  return 0;
}
