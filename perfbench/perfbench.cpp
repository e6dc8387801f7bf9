// perfbench — end-to-end benchmark of the two front doors, parfw::solve and
// serve::PathService::answer, with an oracle check on every operation.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//
// Workloads (each a closed loop: one caller, operations back to back):
//   solve-1node      kBlockedParallel over the global pool, values only,
//                    Erdős–Rényi n=3072 p=0.01, integral weights, b=64.
//   solve-2x2-paths  kDistributed async on a 2x2 grid with track_paths,
//                    checkpoint_every=8 and publish_store, both stores
//                    FileCheckpointStores; Erdős–Rényi n=1536, b=64.
//   serve-mixed      grid2d(32, 48) solved with paths and published on a
//                    2x2 grid into a FileCheckpointStore; one PathService
//                    (4 MiB budget, second-touch admission) answers a
//                    fixed sequence of 64-query batches: 9 in 10 route
//                    batches (Zipf-1.2 endpoints, paths), 1 in 10
//                    distance-table batches (uniform endpoints). Eight
//                    producing solves, spread between the batches, give
//                    its gflops.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a few untraced
// operations, then one traced operation instrumented from outside (the
// DistStrategy / ServeOptions trace and metrics seams, a PoolObserver on
// the global pool, the srgemm dispatch counters, a timing CheckpointStore
// decorator) and prints the per-layer metrics. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}; the line before
// it records the environment the numbers came from.
//
// Oracles are computed before the set-up clock starts: single-threaded
// kBlocked for values and blocked_floyd_warshall_paths for distances and
// predecessors; integral weights (the road grid's are floored) make every
// reduction order bit-identical, so solves, serve-mixed's published result
// and its producing solves included, are compared bit for bit. Served
// answers are compared with ApspResult::query on the oracle, which is the
// published result bit for bit. A mismatch or an exception counts as a
// failed operation. Every start runs a self-test showing that deliberately
// corrupted results are counted as failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <latch>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "causal/analysis.hpp"
#include "causal/graph.hpp"
#include "core/apsp.hpp"
#include "core/checkpoint_store.hpp"
#include "dist/solve.hpp"
#include "graph/generators.hpp"
#include "sched/trace.hpp"
#include "serve/path_service.hpp"
#include "serve/publish.hpp"
#include "serve/qtrace.hpp"
#include "serve/workload.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/metrics.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace parfw;

namespace {

using S = MinPlus<float>;
using T = float;
namespace fs = std::filesystem;

// --- workload constants -------------------------------------------------------

constexpr std::size_t kBlock = 64;
constexpr vertex_t kOneNodeN = 3072;
constexpr vertex_t kPathsN = 1536;
constexpr double kErP = 0.01;
constexpr vertex_t kGridRows = 32, kGridCols = 48;
constexpr std::size_t kCheckpointEvery = 8;
constexpr std::size_t kServeBudget = std::size_t{4} << 20;
constexpr std::size_t kBatchQueries = 64;
constexpr double kZipfS = 1.2;
/// Every tenth batch is a distance-table scan.
constexpr std::size_t kTableEvery = 10;
/// serve-mixed replays seconds x this many batches: a count, not a time
/// budget, so the cache counters repeat exactly for a given seed.
constexpr std::size_t kBatchesPerSecond = 130;
constexpr std::size_t kWarmupBatches = 100;
/// Producing solves spread evenly over the serve-mixed replay (between
/// batches, outside their timing): the host's speed drifts over seconds,
/// so samples spread over the whole run give a steadier gflops median
/// than back-to-back ones.
constexpr std::size_t kServeSolves = 8;
/// Batches replayed by the traced serve pass (and by its untraced twin).
constexpr std::size_t kTracedBatches = 50;
/// Set-ups per run; setup_s is their median. Every set-up runs after the
/// self-test has spawned the global pool, so setup_s is the time of a warm
/// re-set-up: a cold-start cost (pool spawn, lazy statics) does not show.
constexpr int kSetupReps = 3;
/// Windows of consecutive operations latency_p99_ms takes the median over:
/// about 430 batches each on serve-mixed, 6-8 solves on the solve
/// workloads (where a window's p99 is its slowest solve).
constexpr std::size_t kTailWindows = 9;
/// Untraced operations a traced run times as the overhead baseline.
constexpr int kBaselineOps = 3;
constexpr std::size_t kMinSolves = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out = ".";
};

// --- statistics on raw samples -------------------------------------------------

/// Linear-interpolation quantile of raw samples (no histogram buckets).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// p99 of each of kTailWindows windows of consecutive operations (in the
/// order they ran; the last window takes the remainder), then the median
/// of those p99s. The host's speed drifts for seconds at a time, and a
/// run-wide p99 lands wherever the slowest stretch of the run was; the
/// median over windows ignores slow stretches that cover fewer than half
/// of the windows.
double tail_latency(const std::vector<double>& v) {
  const std::size_t w = v.size() / kTailWindows;
  if (w == 0) return quantile(v, 0.99);
  std::vector<double> p99;
  for (std::size_t i = 0; i < kTailWindows; ++i) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(i * w);
    const auto end = i + 1 == kTailWindows
                         ? v.end()
                         : begin + static_cast<std::ptrdiff_t>(w);
    p99.push_back(quantile({begin, end}, 0.99));
  }
  return median(p99);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double useful_gflop(vertex_t n) {
  return blocked_fw_flops(static_cast<std::size_t>(n)) / 1e9;
}

// --- result reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::string summary;  ///< one human-readable line

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct && o.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    if (i != 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// The environment a result was measured in: numbers from different
/// hosts, kernels or flags are not comparable.
void print_environment(const Args& a) {
  const srgemm::Kernel kernel =
      srgemm::detail::resolve_kernel<S>(srgemm::detail::env_pins().kernel);
  const srgemm::MicroShape micro =
      srgemm::detail::resolve_micro(srgemm::detail::env_pins().micro);
  std::printf(
      "env: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"pool_workers\": %zu, "
      "\"srgemm_kernel\": \"%s\", \"srgemm_micro\": \"%s\", "
      "\"simd_bytes\": %zu, \"compiler\": \"%s\", \"flags\": \"%s\"}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      json_number(a.seconds).c_str(), a.trace ? 1 : 0,
      std::thread::hardware_concurrency(), ThreadPool::global().size(),
      srgemm::kernel_name(kernel),
      kernel == srgemm::Kernel::kSimd ? srgemm::micro_name(micro) : "none",
      static_cast<std::size_t>(simd::kNativeBytes), PERFBENCH_COMPILER,
      PERFBENCH_FLAGS);
}

// --- oracle checks -------------------------------------------------------------

template <typename U>
bool same_bits(MatrixView<const U> a, MatrixView<const U> b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    if (std::memcmp(a.data() + i * a.ld(), b.data() + i * b.ld(),
                    a.cols() * sizeof(U)) != 0)
      return false;
  return true;
}

bool check_solve(const ApspResult<T>& got, const ApspResult<T>& want) {
  if (!same_bits(got.dist.view(), want.dist.view())) return false;
  if (got.pred.has_value() != want.pred.has_value()) return false;
  return !got.pred.has_value() || same_bits(got.pred->view(), want.pred->view());
}

bool check_answers(const std::vector<QueryResult<T>>& got,
                   const QueryBatch& batch, const ApspResult<T>& oracle) {
  if (got.size() != batch.pairs.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PathQuery& q = batch.pairs[i];
    const QueryResult<T> want = oracle.query(q.src, q.dst, batch.want_paths);
    if (got[i].status != want.status || got[i].path != want.path ||
        std::memcmp(&got[i].distance, &want.distance, sizeof(T)) != 0)
      return false;
  }
  return true;
}

/// Run one operation: `op` times itself into *seconds and returns whether
/// its output passed the oracle. Exceptions are failed operations.
template <typename Op>
bool attempt(Outcome& out, Op&& op, double* seconds) {
  ++out.attempted;
  try {
    if (op(seconds)) return true;
    std::fprintf(stderr, "perfbench: operation %llu failed its oracle check\n",
                 static_cast<unsigned long long>(out.attempted));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: operation %llu threw: %s\n",
                 static_cast<unsigned long long>(out.attempted), e.what());
  }
  ++out.failed;
  return false;
}

// --- inputs and oracles -----------------------------------------------------------

Graph er_graph(vertex_t n, std::uint64_t seed) {
  return gen::erdos_renyi(n, kErP, seed, 1.0, 100.0, /*integral=*/true);
}

/// The serve-mixed road grid with its weights floored to integers (1..9),
/// so that its solves, like the Erdős–Rényi ones, match the single-threaded
/// oracle bit for bit whatever their reduction order.
Graph road_graph(std::uint64_t seed) {
  const Graph grid = gen::grid2d(kGridRows, kGridCols, seed);
  Graph g(grid.num_vertices());
  for (const Edge& e : grid.edges())
    g.add_edge(e.src, e.dst, std::floor(e.weight));
  return g;
}

ApspResult<T> values_oracle(const Graph& g) {
  ApspOptions o;
  o.algorithm = ApspAlgorithm::kBlocked;
  o.block_size = kBlock;
  return solve<S>(g, o);
}

ApspResult<T> paths_oracle(const Graph& g, std::size_t b) {
  ApspResult<T> r;
  r.dist = g.distance_matrix<S>();
  r.pred.emplace(r.dist.rows(), r.dist.cols());
  init_predecessors<S>(r.dist.view(), r.pred->view());
  blocked_floyd_warshall_paths<S>(r.dist.view(), r.pred->view(), b);
  return r;
}

ApspOptions one_node_options() {
  ApspOptions o;
  o.algorithm = ApspAlgorithm::kBlockedParallel;
  o.block_size = kBlock;
  return o;
}

/// kDistributed async on a 2x2 grid with paths; `ckpt` enables
/// checkpointing every kCheckpointEvery rounds, `pub` publishes the result.
ApspOptions grid_paths_options(std::size_t b, CheckpointStore* ckpt,
                               CheckpointStore* pub) {
  ApspOptions o;
  o.algorithm = ApspAlgorithm::kDistributed;
  o.block_size = b;
  o.track_paths = true;
  o.dist.variant = sched::Variant::kAsync;
  o.dist.grid_rows = 2;
  o.dist.grid_cols = 2;
  if (ckpt != nullptr) {
    o.dist.resilience.checkpoint_every = kCheckpointEvery;
    o.dist.resilience.store = ckpt;
  }
  o.dist.publish_store = pub;
  return o;
}

/// The serve request stream: batch i is a distance-table batch (uniform
/// endpoints, no paths) when i % kTableEvery == kTableEvery - 1, else a
/// route batch (Zipf endpoints, paths). `tag` separates the warm-up
/// stream from the measured one.
std::vector<QueryBatch> serve_stream(vertex_t n, std::size_t batches,
                                     std::uint64_t seed, std::uint64_t tag) {
  const serve::ZipfSampler zipf(n, kZipfS);
  Rng rng = Rng::split(seed, tag);
  std::vector<QueryBatch> out(batches);
  for (std::size_t i = 0; i < batches; ++i) {
    QueryBatch& b = out[i];
    const bool table = i % kTableEvery == kTableEvery - 1;
    b.want_paths = !table;
    b.pairs.reserve(kBatchQueries);
    for (std::size_t q = 0; q < kBatchQueries; ++q) {
      if (table) {
        const auto s = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        const auto d = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        b.add(s, d);
      } else {
        const std::int64_t s = zipf(rng);
        b.add(s, zipf(rng));
      }
    }
  }
  return out;
}

/// A fresh directory under the output root, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const fs::path& root, const std::string& name)
      : path_(root / (name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// A fresh (emptied) sub-directory.
  fs::path fresh(const std::string& sub) const {
    const fs::path p = path_ / sub;
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
  }

 private:
  fs::path path_;
};

// --- layer probes (traced runs only) ----------------------------------------------

/// PoolObserver on ThreadPool::global(): task count, queue wait and run
/// time, plus one span per task on the worker's own trace track.
class PoolProbe final : public PoolObserver {
 public:
  void on_queue_depth(std::size_t) override {}
  void on_task(double wait_seconds, double run_seconds) override {
    const double t_end = sched::now_seconds();
    std::lock_guard<std::mutex> lock(mu_);
    ++tasks_;
    wait_ += wait_seconds;
    run_ += run_seconds;
    if (sink_ != nullptr) {
      sched::TraceEvent e;
      e.rank = track();
      e.name = "poolTask";
      e.t_begin = t_end - run_seconds;
      e.t_end = t_end;
      sink_->record(e);
    }
  }

  void attach(ThreadPool& pool, sched::TraceSink* sink) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_ = 0;
      wait_ = run_ = 0.0;
      sink_ = sink;
    }
    pool.set_observer(this);
  }
  /// A worker reports a task after the task's future is ready, so a solve
  /// can return before its last tasks have reported. Park one task on every
  /// worker first: once all are parked, every earlier report has returned,
  /// and the observer comes off before the parked tasks could report.
  void detach(ThreadPool& pool) {
    const auto workers = static_cast<std::ptrdiff_t>(pool.size());
    std::latch parked(workers), release(1);
    std::vector<std::future<void>> done;
    for (std::ptrdiff_t i = 0; i < workers; ++i)
      done.push_back(pool.submit([&] {
        parked.count_down();
        release.wait();
      }));
    parked.wait();
    pool.set_observer(nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      sink_ = nullptr;
    }
    release.count_down();
    for (std::future<void>& f : done) f.get();
  }

  std::uint64_t tasks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_;
  }
  double wait_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wait_;
  }
  double run_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return run_;
  }

 private:
  /// Trace track of the calling worker: 1, 2, ... in order of first task
  /// (track 0 holds the benchmark's own spans).
  static int track() {
    static std::atomic<int> next{1};
    thread_local const int mine = next.fetch_add(1);
    return mine;
  }

  mutable std::mutex mu_;
  std::uint64_t tasks_ = 0;
  double wait_ = 0.0;
  double run_ = 0.0;
  sched::TraceSink* sink_ = nullptr;
};

/// One probe per process; attach() resets its totals.
PoolProbe& pool_probe() {
  static PoolProbe probe;
  return probe;
}

/// CheckpointStore decorator timing the two hot calls from outside:
/// put (checkpoint cuts, publish) and get_ranges (served tile reads).
class TimedStore final : public CheckpointStore {
 public:
  explicit TimedStore(CheckpointStore& inner) : inner_(inner) {}

  void put(const std::string& key,
           std::span<const std::uint8_t> blob) override {
    const Timer t;
    inner_.put(key, blob);
    const double s = t.seconds();
    std::lock_guard<std::mutex> lock(mu_);
    ++puts_;
    put_bytes_ += blob.size();
    put_seconds_ += s;
  }
  std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) const override {
    return inner_.get(key);
  }
  void erase(const std::string& key) override { inner_.erase(key); }
  std::vector<std::string> keys() const override { return inner_.keys(); }
  bool get_ranges(const std::string& key, std::span<const ByteRange> ranges,
                  std::uint8_t* out) const override {
    const Timer t;
    const bool ok = inner_.get_ranges(key, ranges, out);
    const double s = t.seconds();
    std::uint64_t bytes = 0;
    for (const ByteRange& r : ranges) bytes += r.length;
    std::lock_guard<std::mutex> lock(mu_);
    ++range_reads_;
    range_bytes_ += bytes;
    range_seconds_ += s;
    return ok;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    puts_ = put_bytes_ = range_reads_ = range_bytes_ = 0;
    put_seconds_ = range_seconds_ = 0.0;
  }

  struct Totals {
    std::uint64_t puts = 0, put_bytes = 0, range_reads = 0, range_bytes = 0;
    double put_seconds = 0.0, range_seconds = 0.0;
  };
  Totals totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {puts_, put_bytes_, range_reads_, range_bytes_, put_seconds_,
            range_seconds_};
  }

 private:
  CheckpointStore& inner_;
  mutable std::mutex mu_;
  std::uint64_t puts_ = 0, put_bytes_ = 0;
  mutable std::uint64_t range_reads_ = 0, range_bytes_ = 0;
  double put_seconds_ = 0.0;
  mutable double range_seconds_ = 0.0;
};

/// Per-layer numbers of one traced operation, zero where the workload
/// does not reach the layer.
struct Layers {
  double dm_build_ms = 0.0;
  double roof_gflops = 0.0, pred_roof_gflops = 0.0;
  double srgemm_calls = 0.0, srgemm_flops = 0.0, srgemm_busy_s = 0.0;
  double pool_tasks = 0.0, pool_wait_s = 0.0, pool_run_s = 0.0;
  double pool_busy_ratio = 0.0, srgemm_roof_ratio = 0.0, core_other_ms = 0.0;
  double outer_s = 0.0, panel_s = 0.0, diag_s = 0.0, bcast_s = 0.0,
         checkpoint_s = 0.0, driver_s = 0.0, outer_gflops = 0.0,
         outer_roof_ratio = 0.0;
  double messages = 0.0, msg_bytes = 0.0, recv_wait_s = 0.0;
  double cp_compute = 0.0, cp_comm = 0.0, cp_stall = 0.0, cp_checkpoint = 0.0,
         cp_io = 0.0;
  TimedStore::Totals store{};
  double route_us = 0.0, cache_us = 0.0, io_us = 0.0, walk_us = 0.0,
         io_share = 0.0, stage_coverage = 0.0;
  double hit_ratio = 0.0, misses = 0.0, evictions = 0.0, bypassed = 0.0,
         ghost_hits = 0.0, hops = 0.0;
  double overhead_ratio = 0.0;
};

void add_layers(Outcome& out, const Layers& l) {
  const TimedStore::Totals& st = l.store;
  out.add("graph.dm_build_ms", l.dm_build_ms, "ms");
  out.add("srgemm.roof_gflops", l.roof_gflops, "GFLOP/s");
  out.add("srgemm.pred_roof_gflops", l.pred_roof_gflops, "GFLOP/s");
  out.add("srgemm.calls", l.srgemm_calls, "count");
  out.add("srgemm.flops", l.srgemm_flops, "flop");
  out.add("srgemm.busy_s", l.srgemm_busy_s, "s");
  out.add("srgemm.roof_ratio", l.srgemm_roof_ratio, "ratio");
  out.add("pool.tasks", l.pool_tasks, "count");
  out.add("pool.wait_s", l.pool_wait_s, "s");
  out.add("pool.run_s", l.pool_run_s, "s");
  out.add("pool.busy_ratio", l.pool_busy_ratio, "ratio");
  out.add("core.other_ms", l.core_other_ms, "ms");
  out.add("dist.outer_s", l.outer_s, "s");
  out.add("dist.panel_s", l.panel_s, "s");
  out.add("dist.diag_s", l.diag_s, "s");
  out.add("dist.bcast_s", l.bcast_s, "s");
  out.add("dist.checkpoint_s", l.checkpoint_s, "s");
  out.add("dist.driver_s", l.driver_s, "s");
  out.add("dist.outer_gflops", l.outer_gflops, "GFLOP/s");
  out.add("dist.outer_roof_ratio", l.outer_roof_ratio, "ratio");
  out.add("mpisim.messages", l.messages, "count");
  out.add("mpisim.bytes", l.msg_bytes, "bytes");
  out.add("mpisim.recv_wait_s", l.recv_wait_s, "s");
  out.add("cp.compute_share", l.cp_compute, "share");
  out.add("cp.comm_share", l.cp_comm, "share");
  out.add("cp.stall_share", l.cp_stall, "share");
  out.add("cp.checkpoint_share", l.cp_checkpoint, "share");
  out.add("cp.io_share", l.cp_io, "share");
  out.add("checkpoint.puts", static_cast<double>(st.puts), "count");
  out.add("checkpoint.put_bytes", static_cast<double>(st.put_bytes), "bytes");
  out.add("checkpoint.put_s", st.put_seconds, "s");
  out.add("checkpoint.put_mibps",
          ratio(static_cast<double>(st.put_bytes) / (1 << 20), st.put_seconds),
          "MiB/s");
  out.add("checkpoint.range_reads", static_cast<double>(st.range_reads),
          "count");
  out.add("checkpoint.range_bytes", static_cast<double>(st.range_bytes),
          "bytes");
  out.add("checkpoint.range_read_us",
          1e6 * ratio(st.range_seconds, static_cast<double>(st.range_reads)),
          "us");
  out.add("serve.route_us", l.route_us, "us");
  out.add("serve.cache_us", l.cache_us, "us");
  out.add("serve.io_us", l.io_us, "us");
  out.add("serve.walk_us", l.walk_us, "us");
  out.add("serve.io_share", l.io_share, "share");
  out.add("serve.stage_coverage", l.stage_coverage, "ratio");
  out.add("serve.cache.hit_ratio", l.hit_ratio, "ratio");
  out.add("serve.cache.misses", l.misses, "count");
  out.add("serve.cache.evictions", l.evictions, "count");
  out.add("serve.cache.bypassed", l.bypassed, "count");
  out.add("serve.cache.ghost_hits", l.ghost_hits, "count");
  out.add("serve.walk.hops", l.hops, "count");
  out.add("trace.overhead_ratio", l.overhead_ratio, "ratio");
}

/// Median time of Graph::distance_matrix, the first step of every solve.
double dm_build_ms(const Graph& g) {
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    const Timer timer;
    const Matrix<T> d = g.distance_matrix<S>();
    t.push_back(timer.millis());
  }
  return median(t);
}

void fill_random(MatrixView<T> m, Rng& rng, float lo, float hi) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      m(i, j) = std::floor(rng.next_float(lo, hi));
}

/// Single-thread roofs of the two kernels: multiply_prepacked at the
/// 1-node outer shape (n x b times b x n) and multiply_with_pred at the
/// 2x2 per-rank outer shape. Operands are random integral weights and C is
/// already closed (no entry improves), the state most of a solve's outer
/// updates see, so the pred kernel never takes its rewrite branch.
void measure_roofs(Layers& l, std::uint64_t seed) {
  Rng rng = Rng::split(seed, 0x200f);
  constexpr int kReps = 5;
  {
    const std::size_t n = kOneNodeN;
    Matrix<T> a(n, kBlock), b(kBlock, n), c(n, n);
    fill_random(a.view(), rng, 1.0f, 100.0f);
    fill_random(b.view(), rng, 1.0f, 100.0f);
    c.view().fill(1.0f);
    std::vector<double> t;
    for (int r = 0; r < kReps; ++r) {
      const Timer timer;
      srgemm::multiply_prepacked<S>(a.view(), b.view(), c.view());
      t.push_back(timer.seconds());
    }
    l.roof_gflops = srgemm::flops(n, n, kBlock) / median(t) / 1e9;
  }
  {
    const std::size_t m = kPathsN / 2;
    Matrix<T> a(m, kBlock), b(kBlock, m), c0(m, m), c(m, m);
    Matrix<std::int64_t> pb(kBlock, m, 0), pc(m, m, 0);
    fill_random(a.view(), rng, 1.0f, 100.0f);
    fill_random(b.view(), rng, 1.0f, 100.0f);
    c0.view().fill(1.0f);
    std::vector<double> t;
    for (int r = 0; r < kReps; ++r) {
      c.view().copy_from(c0.view());
      const Timer timer;
      srgemm::multiply_with_pred<S>(a.view(), b.view(), c.view(), pb.view(),
                                    pc.view());
      t.push_back(timer.seconds());
    }
    l.pred_roof_gflops = srgemm::flops(m, m, kBlock) / median(t) / 1e9;
  }
}

/// Σ srgemm dispatch counters in the global registry (all kernel labels).
void read_srgemm(Layers& l) {
  for (const telemetry::MetricRow& row : telemetry::Registry::global().snapshot()) {
    if (row.name == "srgemm.calls") l.srgemm_calls += row.value;
    if (row.name == "srgemm.flops") l.srgemm_flops += row.value;
    if (row.name == "srgemm.seconds") l.srgemm_busy_s += row.hist.sum;
  }
}

void read_pool(Layers& l, double wall, std::size_t workers) {
  const PoolProbe& p = pool_probe();
  l.pool_tasks = static_cast<double>(p.tasks());
  l.pool_wait_s = p.wait_seconds();
  l.pool_run_s = p.run_seconds();
  l.pool_busy_ratio = ratio(l.pool_run_s, static_cast<double>(workers) * wall);
}

void read_critical_path(Layers& l, const std::vector<sched::TraceEvent>& ev) {
  const causal::Graph g = causal::build_graph(ev);
  causal::BlameReport r;
  std::string err;
  PARFW_CHECK_MSG(causal::analyze(g, {}, &r, &err), "causal analysis: " << err);
  l.cp_compute = r.share(causal::Category::kCompute);
  l.cp_comm = r.share(causal::Category::kComm);
  l.cp_stall = r.share(causal::Category::kStall);
  l.cp_checkpoint = r.share(causal::Category::kCheckpoint);
  l.cp_io = r.share(causal::Category::kIo);
}

void write_trace(const fs::path& path,
                 const std::vector<sched::TraceEvent>& events) {
  std::ofstream os(path);
  PARFW_CHECK_MSG(os.good(), "cannot open " << path);
  sched::write_chrome_trace(events, os);
  PARFW_CHECK_MSG(os.good(), "trace write failed: " << path);
}

fs::path trace_path(const Args& a) {
  return a.out / ("trace-" + a.workload + ".json");
}

/// Median of kSetupReps set-ups; each returns its own duration in seconds.
double median_setup(const std::function<double()>& setup, int reps) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(setup());
  return median(t);
}

/// Closed loop of solves for `seconds` (at least kMinSolves).
template <typename Op>
std::vector<double> solve_loop(Outcome& out, double seconds, Op&& op) {
  std::vector<double> lat;
  const Timer budget;
  while (budget.seconds() < seconds || lat.size() < kMinSolves) {
    double s = 0.0;
    if (attempt(out, op, &s)) lat.push_back(s);
    if (out.failed > 0 && lat.empty() && out.attempted >= kMinSolves) break;
  }
  return lat;
}

void add_solve_metrics(Outcome& out, const std::vector<double>& lat,
                       double setup_s, vertex_t n) {
  const double p50 = median(lat);
  out.add("latency_p50_ms", 1e3 * p50, "ms");
  out.add("latency_p99_ms", 1e3 * tail_latency(lat), "ms");
  // All-pairs answers produced per second: n^2 pairs per solve.
  out.add("throughput_per_s",
          ratio(static_cast<double>(n) * static_cast<double>(n), p50),
          "queries/s");
  out.add("gflops", ratio(useful_gflop(n), p50), "GFLOP/s");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

// --- solve-1node -----------------------------------------------------------------

Outcome run_solve_1node(const Args& a) {
  Outcome out;
  const ApspResult<T> oracle = values_oracle(er_graph(kOneNodeN, a.seed));
  const ApspOptions opt = one_node_options();
  Graph g;
  const auto op = [&](double* s) {
    const Timer t;
    const ApspResult<T> r = solve<S>(g, opt);
    *s = t.seconds();
    return check_solve(r, oracle);
  };

  // Set-up: input generation, then one warm-up solve (pool spawn, first
  // touch of the matrix pages).
  const double setup_s = median_setup(
      [&] {
        const Timer t;
        g = er_graph(kOneNodeN, a.seed);
        const ApspResult<T> warm = solve<S>(g, opt);
        const double s = t.seconds();
        out.correct = out.correct && check_solve(warm, oracle);
        return s;
      },
      a.trace ? 1 : kSetupReps);

  if (!a.trace) {
    const std::vector<double> lat = solve_loop(out, a.seconds, op);
    add_solve_metrics(out, lat, setup_s, kOneNodeN);
    out.summary = std::to_string(lat.size()) + " solves";
    return out;
  }

  std::vector<double> base;
  for (int i = 0; i < kBaselineOps; ++i) {
    double s = 0.0;
    if (attempt(out, op, &s)) base.push_back(s);
  }
  Layers l;
  l.dm_build_ms = dm_build_ms(g);

  // The single-node solve emits no spans of its own: the trace holds the
  // benchmark's span around the solve and one span per pool task.
  ThreadPool& pool = ThreadPool::global();
  sched::CollectTraceSink sink;
  telemetry::Registry::global().clear();
  telemetry::set_enabled(true);
  pool_probe().attach(pool, &sink);
  double wall = 0.0;
  sched::TraceEvent span;
  span.name = "solve";
  span.t_begin = sched::now_seconds();
  attempt(out, op, &wall);
  span.t_end = span.t_begin + wall;
  pool_probe().detach(pool);
  telemetry::set_enabled(false);
  sink.record(span);

  read_srgemm(l);
  read_pool(l, wall, pool.size());
  l.core_other_ms = 1e3 * wall - 1e3 * l.srgemm_busy_s - l.dm_build_ms;
  measure_roofs(l, a.seed);
  l.srgemm_roof_ratio =
      ratio(ratio(l.srgemm_flops, l.srgemm_busy_s) / 1e9,
            static_cast<double>(pool.size()) * l.roof_gflops);
  l.overhead_ratio = ratio(wall, median(base));
  write_trace(trace_path(a), sink.events());
  add_layers(out, l);
  out.summary = "traced solve " + json_number(1e3 * wall) + " ms";
  return out;
}

// --- solve-2x2-paths --------------------------------------------------------------

/// Sum the interpreter's fw.phase.* series into the dist ladder.
void read_dist(Layers& l, const telemetry::Registry& reg, double wall,
               int ranks) {
  double outer_flops = 0.0, phases = 0.0;
  for (const telemetry::MetricRow& row : reg.snapshot()) {
    const std::size_t at = row.labels.find("phase=");
    if (at == std::string::npos) continue;
    const std::string phase =
        row.labels.substr(at + 6, row.labels.find(',', at) - at - 6);
    if (row.name == "fw.phase.flops" && phase == "OuterUpdate")
      outer_flops += row.value;
    if (row.name != "fw.phase.seconds") continue;
    const double s = row.hist.sum;
    phases += s;
    if (phase == "OuterUpdate")
      l.outer_s += s;
    else if (phase.starts_with("PanelUpdate") || phase.starts_with("Lookahead"))
      l.panel_s += s;
    else if (phase == "DiagUpdate")
      l.diag_s += s;
    else if (phase == "Checkpoint")
      l.checkpoint_s += s;
    else
      l.bcast_s += s;  // DiagBcast*, RowPanelBcast, ColPanelBcast
  }
  l.driver_s = static_cast<double>(ranks) * wall - phases;
  l.outer_gflops = ratio(outer_flops / 1e9, l.outer_s);
}

void read_messages(Layers& l, const std::vector<sched::TraceEvent>& ev) {
  for (const sched::TraceEvent& e : ev) {
    if (e.ek == sched::EventKind::kSend) {
      l.messages += 1.0;
      l.msg_bytes += static_cast<double>(e.bytes);
    } else if (e.ek == sched::EventKind::kRecv) {
      l.recv_wait_s += e.t_end - e.t_begin;
    }
  }
}

Outcome run_solve_2x2_paths(const Args& a) {
  Outcome out;
  const ApspResult<T> oracle = paths_oracle(er_graph(kPathsN, a.seed), kBlock);
  const ScratchDir dir(a.out, "tmp-" + a.workload);
  std::optional<FileCheckpointStore> ckpt, pub;
  // Every solve gets empty stores, untimed, as a logical run must. A file
  // replaced by rename also makes ext4 start writing it back at once, so
  // reused stores would put disk writes under the timed solves.
  const auto fresh_stores = [&] {
    ckpt.emplace(dir.fresh("ckpt"));
    pub.emplace(dir.fresh("pub"));
  };
  Graph g;
  const auto op = [&](double* s) {
    fresh_stores();
    const ApspOptions opt = grid_paths_options(kBlock, &*ckpt, &*pub);
    const Timer t;
    const ApspResult<T> r = solve<S>(g, opt);
    *s = t.seconds();
    return check_solve(r, oracle);
  };

  // Set-up: input generation and one warm-up solve (rank threads, first
  // writes of every checkpoint and publish file).
  const double setup_s = median_setup(
      [&] {
        const Timer t;
        g = er_graph(kPathsN, a.seed);
        double unused = 0.0;
        const bool ok = op(&unused);
        const double s = t.seconds();
        out.correct = out.correct && ok;
        return s;
      },
      a.trace ? 1 : kSetupReps);

  if (!a.trace) {
    const std::vector<double> lat = solve_loop(out, a.seconds, op);
    add_solve_metrics(out, lat, setup_s, kPathsN);
    out.summary = std::to_string(lat.size()) + " solves";
    return out;
  }

  std::vector<double> base;
  for (int i = 0; i < kBaselineOps; ++i) {
    double s = 0.0;
    if (attempt(out, op, &s)) base.push_back(s);
  }
  Layers l;
  l.dm_build_ms = dm_build_ms(g);

  telemetry::Registry reg;
  sched::CollectTraceSink sink;
  fresh_stores();
  TimedStore timed_ckpt(*ckpt), timed_pub(*pub);
  ApspOptions opt = grid_paths_options(kBlock, &timed_ckpt, &timed_pub);
  opt.dist.metrics = &reg;
  opt.dist.trace = &sink;
  ThreadPool& pool = ThreadPool::global();
  telemetry::Registry::global().clear();
  telemetry::set_enabled(true);
  pool_probe().attach(pool, nullptr);
  double wall = 0.0;
  attempt(
      out,
      [&](double* s) {
        const Timer t;
        const ApspResult<T> r = solve<S>(g, opt);
        *s = t.seconds();
        return check_solve(r, oracle);
      },
      &wall);
  pool_probe().detach(pool);
  telemetry::set_enabled(false);

  const std::vector<sched::TraceEvent> events = sink.events();
  read_srgemm(l);
  read_pool(l, wall, pool.size());
  read_dist(l, reg, wall, 4);
  read_messages(l, events);
  read_critical_path(l, events);
  const TimedStore::Totals c = timed_ckpt.totals(), p = timed_pub.totals();
  l.store = {c.puts + p.puts, c.put_bytes + p.put_bytes, 0, 0,
             c.put_seconds + p.put_seconds, 0.0};
  measure_roofs(l, a.seed);
  l.srgemm_roof_ratio =
      ratio(ratio(l.srgemm_flops, l.srgemm_busy_s) / 1e9,
            static_cast<double>(pool.size()) * l.roof_gflops);
  l.outer_roof_ratio = ratio(l.outer_gflops, l.pred_roof_gflops);
  l.overhead_ratio = ratio(wall, median(base));
  write_trace(trace_path(a), events);
  add_layers(out, l);
  out.summary = "traced solve " + json_number(1e3 * wall) + " ms, " +
                std::to_string(events.size()) + " events";
  return out;
}

// --- serve-mixed ------------------------------------------------------------------

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.cache_budget_bytes = kServeBudget;
  o.admission = serve::CacheAdmission::kSecondTouch;
  return o;
}

/// Serve spans name a query by its index in its batch (`k`). Renumber
/// them by batch so every query of the traced pass has its own id and the
/// span trees reassemble, in process and in trace_analyze --mode serve.
class BatchQidSink final : public sched::TraceSink {
 public:
  explicit BatchQidSink(sched::TraceSink& inner) : inner_(inner) {}
  void set_batch(std::size_t i) {
    offset_ = static_cast<std::uint32_t>(i * kBatchQueries);
  }
  void record(const sched::TraceEvent& e) override {
    sched::TraceEvent c = e;
    c.k += offset_;
    inner_.record(c);
  }

 private:
  sched::TraceSink& inner_;
  std::uint32_t offset_ = 0;
};

/// What the traced replay records besides latencies.
struct ReplayTrace {
  BatchQidSink* qids = nullptr;
  double hops = 0.0;  ///< Σ edges of the served paths
};

/// Replay batches [begin, end) through `svc`, checking every answer;
/// appends the latencies of the batches that passed to `lat`.
void replay(Outcome& out, serve::PathService<S>& svc,
            const std::vector<QueryBatch>& batches, std::size_t begin,
            std::size_t end, const ApspResult<T>& oracle,
            std::vector<double>& lat, ReplayTrace* tr = nullptr) {
  for (std::size_t i = begin; i < end; ++i) {
    const QueryBatch& batch = batches[i];
    if (tr != nullptr) tr->qids->set_batch(i);
    double s = 0.0;
    const bool ok = attempt(
        out,
        [&](double* secs) {
          const Timer t;
          const std::vector<QueryResult<T>> got = svc.answer(batch);
          *secs = t.seconds();
          if (tr != nullptr)
            for (const QueryResult<T>& r : got)
              if (!r.path.empty())
                tr->hops += static_cast<double>(r.path.size() - 1);
          return check_answers(got, batch, oracle);
        },
        &s);
    if (ok) lat.push_back(s);
  }
}

Outcome run_serve_mixed(const Args& a) {
  Outcome out;
  const auto n = static_cast<vertex_t>(kGridRows * kGridCols);
  const ApspResult<T> oracle = paths_oracle(road_graph(a.seed), kBlock);
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(a.seconds * kBatchesPerSecond)));
  const std::vector<QueryBatch> warm = serve_stream(n, kWarmupBatches, a.seed, 1);
  const std::vector<QueryBatch> batches =
      serve_stream(n, std::max(count, kTracedBatches), a.seed, 2);
  const ScratchDir dir(a.out, "tmp-" + a.workload);

  // Set-up: input generation, the producing solve with its publish, the
  // service open and a warm-up replay that fills the cache. The published
  // result must match the oracle bit for bit.
  Graph g;
  std::optional<FileCheckpointStore> pub;
  std::optional<serve::PathService<S>> svc;
  const double setup_s = median_setup(
      [&] {
        // Free the previous set-up's service first, so the peak resident
        // set does not depend on the number of set-ups.
        svc.reset();
        const Timer t;
        g = road_graph(a.seed);
        pub.emplace(dir.fresh("pub"));
        const ApspResult<T> published =
            solve<S>(g, grid_paths_options(kBlock, nullptr, &*pub));
        svc.emplace(*pub, serve_options());
        for (const QueryBatch& b : warm) (void)svc->answer(b);
        const double s = t.seconds();
        out.correct = out.correct && check_solve(published, oracle);
        return s;
      },
      a.trace ? 1 : kSetupReps);

  if (!a.trace) {
    // The producing solve (without its publish) must match the oracle.
    const auto produce = [&](double* s) {
      const Timer t;
      const ApspResult<T> r =
          solve<S>(g, grid_paths_options(kBlock, nullptr, nullptr));
      *s = t.seconds();
      return check_solve(r, oracle);
    };
    std::vector<double> lat, solve_s;
    lat.reserve(count);
    const std::size_t stride = (count + kServeSolves - 1) / kServeSolves;
    for (std::size_t begin = 0; begin < count; begin += stride) {
      replay(out, *svc, batches, begin, std::min(count, begin + stride),
             oracle, lat);
      double s = 0.0;
      if (attempt(out, produce, &s)) solve_s.push_back(s);
    }
    out.add("latency_p50_ms", 1e3 * median(lat), "ms");
    out.add("latency_p99_ms", 1e3 * tail_latency(lat), "ms");
    out.add("throughput_per_s",
            ratio(static_cast<double>(lat.size() * kBatchQueries), sum(lat)),
            "queries/s");
    out.add("gflops", ratio(useful_gflop(n), median(solve_s)), "GFLOP/s");
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    const serve::TileCacheStats& cs = svc->cache_stats();
    out.summary = std::to_string(lat.size()) + " batches, hit ratio " +
                  json_number(cs.hit_rate());
    return out;
  }

  // Untraced twin of the traced pass: same warm state, same batches.
  std::vector<double> base;
  replay(out, *svc, batches, 0, kTracedBatches, oracle, base);

  Layers l;
  l.dm_build_ms = dm_build_ms(g);
  TimedStore timed(*pub);
  sched::CollectTraceSink sink;
  BatchQidSink qids(sink);
  serve::ServeOptions opt = serve_options();
  opt.trace = &qids;
  serve::PathService<S> traced(timed, opt);
  for (const QueryBatch& b : warm) (void)traced.answer(b);
  timed.reset();
  const serve::TileCacheStats before = traced.cache_stats();
  const std::size_t events_before = sink.size();
  ReplayTrace tr{&qids};
  std::vector<double> lat;
  replay(out, traced, batches, 0, kTracedBatches, oracle, lat, &tr);
  l.hops = tr.hops;
  const serve::TileCacheStats after = traced.cache_stats();

  std::vector<sched::TraceEvent> events = sink.events();
  events.erase(events.begin(),
               events.begin() + static_cast<std::ptrdiff_t>(events_before));
  const serve::ServeTraceReport sr = serve::analyze_serve_trace(events);
  PARFW_CHECK_MSG(sr.ok, "serve trace does not tile: " << sr.error);
  const double q = static_cast<double>(sr.num_queries);
  const auto stage = [&](serve::Stage s) {
    return sr.stage_seconds[static_cast<std::size_t>(s)];
  };
  l.route_us = 1e6 * ratio(stage(serve::Stage::kRoute), q);
  l.cache_us = 1e6 * ratio(stage(serve::Stage::kCache), q);
  l.io_us = 1e6 * ratio(stage(serve::Stage::kIo), q);
  l.walk_us = 1e6 * ratio(stage(serve::Stage::kWalk), q);
  l.io_share = sr.stage_share[static_cast<std::size_t>(serve::Stage::kIo)];
  double stage_sum = 0.0;
  for (double s : sr.stage_seconds) stage_sum += s;
  l.stage_coverage = ratio(stage_sum, sr.total_seconds);
  // The stage self-times must account for the traced query time.
  if (std::abs(l.stage_coverage - 1.0) > 0.01) {
    std::fprintf(stderr, "perfbench: serve stages cover %.4f of query time\n",
                 l.stage_coverage);
    out.correct = false;
  }

  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  l.hit_ratio = ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  l.misses = static_cast<double>(misses);
  l.evictions = static_cast<double>(after.evictions - before.evictions);
  l.bypassed = static_cast<double>(after.bypassed - before.bypassed);
  l.ghost_hits = static_cast<double>(after.ghost_hits - before.ghost_hits);
  l.store = timed.totals();
  read_critical_path(l, events);
  measure_roofs(l, a.seed);
  l.overhead_ratio = ratio(median(lat), median(base));
  write_trace(trace_path(a), events);
  add_layers(out, l);
  out.summary = "traced " + std::to_string(lat.size()) + " batches, " +
                std::to_string(events.size()) + " events";
  return out;
}

// --- self-test --------------------------------------------------------------------

/// A correct result passes its oracle check; a deliberately corrupted one,
/// or an operation that throws, is counted as a failed operation.
bool self_test() {
  constexpr std::size_t b = 16;
  const Graph g = gen::erdos_renyi(128, 0.05, 7, 1.0, 100.0, true);
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "perfbench self-test: %s\n", what);
    ok = ok && cond;
  };
  Outcome out;
  double unused = 0.0;
  const auto counted = [&](bool passes) {
    return attempt(out, [passes](double*) { return passes; }, &unused);
  };

  ApspOptions seq;
  seq.algorithm = ApspAlgorithm::kBlocked;
  seq.block_size = b;
  const ApspResult<T> values = solve<S>(g, seq);
  ApspOptions par = seq;
  par.algorithm = ApspAlgorithm::kBlockedParallel;
  ApspResult<T> got = solve<S>(g, par);
  expect(counted(check_solve(got, values)), "a correct values solve failed");
  T& d = got.dist.view()(3, 5);
  d = d == 7.0f ? 8.0f : 7.0f;
  expect(!counted(check_solve(got, values)), "a corrupted distance passed");

  const ApspResult<T> paths = paths_oracle(g, b);
  ApspResult<T> grid = solve<S>(g, grid_paths_options(b, nullptr, nullptr));
  expect(counted(check_solve(grid, paths)), "a correct paths solve failed");
  std::int64_t& p = grid.pred->view()(9, 2);
  p = p == 0 ? 1 : 0;
  expect(!counted(check_solve(grid, paths)), "a corrupted predecessor passed");

  MemoryCheckpointStore store;
  serve::publish_result(store, paths, b, 2, 2);
  serve::PathService<S> svc(store, serve_options());
  const QueryBatch batch = QueryBatch::one_to_all(0, 128);
  const std::vector<QueryResult<T>> ans = svc.answer(batch);
  expect(counted(check_answers(ans, batch, paths)), "correct answers failed");
  const auto hop = std::find_if(ans.begin(), ans.end(), [](const auto& r) {
    return r.path.size() >= 3;
  });
  expect(hop != ans.end(), "no multi-hop path to corrupt");
  if (hop != ans.end()) {
    const auto at = static_cast<std::size_t>(hop - ans.begin());
    std::vector<QueryResult<T>> bad = ans;
    bad[at].path[1] += 1;
    expect(!counted(check_answers(bad, batch, paths)),
           "a corrupted path passed");
    bad = ans;
    bad[at].distance += 1.0f;
    expect(!counted(check_answers(bad, batch, paths)),
           "a corrupted served distance passed");
  }
  expect(!attempt(
             out,
             [](double*) -> bool { throw std::runtime_error("injected"); },
             &unused),
         "an operation that threw passed");
  expect(out.attempted == 8 && out.failed == 5,
         "failed operations were not counted");
  return ok;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload solve-1node|solve-2x2-paths|"
               "serve-mixed --seed N --seconds S --trace 0|1 --out DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs cli(argc, argv,
                    {"workload", "seed", "seconds", "trace", "out"});
  if (!self_test()) return 1;
  std::fprintf(stderr, "perfbench: self-test ok, its 5 injected failures "
                       "were counted\n");
  Args a;
  a.workload = cli.get("workload", "");
  a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  a.seconds = cli.get_double("seconds", 10.0);
  a.trace = cli.get_int("trace", 0) != 0;
  a.out = cli.get("out", ".");
  if (!(a.seconds > 0.0)) {
    usage();
    return 2;
  }
  fs::create_directories(a.out);

  Outcome out;
  try {
    if (a.workload == "solve-1node") {
      out = run_solve_1node(a);
    } else if (a.workload == "solve-2x2-paths") {
      out = run_solve_2x2_paths(a);
    } else if (a.workload == "serve-mixed") {
      out = run_serve_mixed(a);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("summary: %s; attempted %llu, failed %llu\n", out.summary.c_str(),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_environment(a);
  print_result(out);
  return 0;
}
