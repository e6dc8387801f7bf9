// Shared helpers for the figure-reproduction benches.
//
// Every bench prints: what the paper's figure shows, the regenerated
// series (simulated on the Summit machine model and/or measured on the
// CPU substrate), and the qualitative checks that tie the two together.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "perf/experiments.hpp"
#include "perf/machine.hpp"
#include "sched/trace.hpp"
#include "util/table.hpp"

namespace parfw::bench {

/// Opt-in Chrome-trace capture for the figure benches: when the
/// PARFW_TRACE environment variable names a file, the first run that asks
/// for `sink()` records its schedule events there; the JSON is written at
/// scope exit (load in chrome://tracing or https://ui.perfetto.dev).
class FigTrace {
 public:
  FigTrace() = default;
  FigTrace(const FigTrace&) = delete;
  FigTrace& operator=(const FigTrace&) = delete;
  ~FigTrace() {
    if (path_.empty() || sink_.size() == 0) return;
    std::ofstream os(path_);
    sink_.write_chrome(os);
    std::fprintf(stderr, "[trace] wrote %zu events to %s", sink_.size(),
                 path_.c_str());
    if (sink_.truncated() > 0)
      std::fprintf(stderr, " (TRUNCATED: %llu more events dropped at cap)",
                   static_cast<unsigned long long>(sink_.truncated()));
    std::fprintf(stderr, "\n");
  }

  /// Sink for the run to record, or nullptr (tracing off, or a run was
  /// already captured — one clean timeline per file).
  sched::TraceSink* sink() {
    if (path_.empty() || used_) return nullptr;
    used_ = true;
    return &sink_;
  }

 private:
  static std::string env_path() {
    const char* p = std::getenv("PARFW_TRACE");
    return p == nullptr ? "" : p;
  }
  /// Cap on captured events (PARFW_TRACE_MAX_EVENTS overrides): a trace
  /// of an unexpectedly large run truncates with an explicit marker
  /// instead of exhausting memory. ~2M events ≈ 200 MB resident.
  static std::size_t env_max_events() {
    const char* p = std::getenv("PARFW_TRACE_MAX_EVENTS");
    if (p == nullptr || *p == '\0') return 2'000'000;
    return static_cast<std::size_t>(std::strtoull(p, nullptr, 10));
  }
  std::string path_ = env_path();
  sched::CollectTraceSink sink_{env_max_events()};
  bool used_ = false;
};

/// Opt-in machine-readable output for the figure benches: when the
/// PARFW_BENCH_JSON environment variable names a file, every datapoint
/// recorded through `add()` is written there at scope exit in the
/// google-benchmark JSON layout ({"benchmarks": [{"name", counters}]}),
/// so scripts/bench_compare.py diffs figure benches and google-benchmark
/// binaries with the same code path. The DES datapoints are
/// deterministic, which is what makes a committed baseline
/// (BENCH_dist.json) a meaningful regression gate.
class BenchJson {
 public:
  BenchJson() = default;
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() {
    if (path_.empty() || rows_.empty()) return;
    std::ofstream os(path_);
    os << "{\n  \"context\": {\"source\": \"parfw figure bench\"},\n"
       << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                    "\"real_time\": %.17g, \"time_unit\": \"s\", "
                    "\"%s\": %.17g}%s\n",
                    r.name.c_str(), r.seconds, r.counter.c_str(), r.value,
                    i + 1 < rows_.size() ? "," : "");
      os << buf;
    }
    os << "  ]\n}\n";
    std::fprintf(stderr, "[bench-json] wrote %zu datapoints to %s\n",
                 rows_.size(), path_.c_str());
  }

  bool enabled() const { return !path_.empty(); }

  /// Record one datapoint: `name` keys the comparison (keep it stable
  /// across runs), `seconds` is the modelled/measured duration, and
  /// `counter`/`value` is the throughput figure (e.g. "PFLOP/s").
  void add(const std::string& name, double seconds,
           const std::string& counter, double value) {
    if (enabled()) rows_.push_back({name, seconds, counter, value});
  }

 private:
  struct Row {
    std::string name;
    double seconds;
    std::string counter;
    double value;
  };
  static std::string env_path() {
    const char* p = std::getenv("PARFW_BENCH_JSON");
    return p == nullptr ? "" : p;
  }
  std::string path_ = env_path();
  std::vector<Row> rows_;
};

inline void header(const std::string& title, const std::string& paper_note) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("----------------------------------------------------------------\n");
  std::printf("%s\n\n", paper_note.c_str());
}

inline void footer(const std::string& check) {
  std::printf("\nshape check: %s\n\n", check.c_str());
}

/// The paper's Figure 4/7 vertex sweep (×~1.26 per step).
inline std::vector<double> paper_vertex_sweep(double lo, double hi) {
  // Paper values: 16384, 20643, 26008, 32768, 41285, 52016, 65536, ...
  // Each step multiplies by 2^(1/3).
  std::vector<double> out;
  double v = 16384;
  while (v <= hi * 1.001) {
    if (v >= lo * 0.999) out.push_back(std::round(v));
    v *= 1.2599210498948732;  // 2^(1/3)
  }
  return out;
}

}  // namespace parfw::bench
