// qtrace — per-query span tracing for the serving tier (DESIGN.md §4.13).
//
// Every query a PathService answers is decomposed into a contiguous
// sequence of STAGE intervals — route (dispatch + answer assembly), cache
// (probe + admission), io (get_ranges store reads), walk (pred-walk
// arithmetic) — that tile the query's span EXACTLY, by construction: the
// tracer keeps one stage clock, and every stage switch closes the current
// interval at timestamp t and opens the next at the same t. No gaps, no
// overlaps, and the per-stage sums reconcile with the query total up to
// FP rounding — which is what makes the serve blame split an accounting
// identity rather than a sampling estimate.
//
// Spans go out through the same sched::TraceSink seam the solve pipeline
// uses (one track per rank in the Chrome trace; k carries the query id),
// so causal::build_graph / analyze work on serve traces unchanged —
// Category::kIo splits store reads from walk compute and routing.
// Aggregates land in telemetry as serve.stage.*.latency histograms (at a
// finer bucket resolution than the default — the cache-hit path is ~µs)
// and per-tile miss-cost gauges keyed by block coordinate: exactly the
// signal the admission-tuning feedback loop needs.
//
// The tracer is single-threaded, one per PathService, and inert — zero
// clock reads — when neither a sink nor a registry is configured.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/trace.hpp"
#include "serve/tile_cache.hpp"
#include "telemetry/metrics.hpp"

namespace parfw::serve {

/// Sub-buckets per octave for serve.* latency histograms: 8 bounds the
/// quantile error at 2^(1/8) ≈ 1.09x, enough to separate a ~2 µs cache
/// hit from a ~4 µs one — the default 4 (≈ 1.19x) was verified too coarse
/// for sub-millisecond tails (telemetry_test FineResolution).
inline constexpr int kServeHistSub = 8;

/// Latency attribution stages; together they partition a query's span.
enum class Stage : std::uint8_t {
  kRoute = 0,  ///< dispatch, answer assembly
  kCache = 1,  ///< tile-cache probe + admission
  kIo = 2,     ///< get_ranges store reads on a cache miss
  kWalk = 3,   ///< pred-walk arithmetic
};
inline constexpr int kNumStages = 4;

/// "route", "cache", "io", "walk" — metric-name fragments.
const char* stage_name(Stage s);
/// "serveRoute", ... — span names (static storage, as TraceSink requires).
const char* stage_span_name(Stage s);

/// One answered query's breakdown, as the tracer measured it. This is
/// what the SLO monitor records and the slow-query log stores.
struct QueryStats {
  std::int64_t qid = -1;
  double t_begin = 0.0;  ///< sched::now_seconds() at query start
  double total = 0.0;    ///< end - begin, seconds
  std::array<double, kNumStages> stage{};  ///< seconds per stage
  bool ok = true;
};

/// Accumulated cost of misses on one tile — the per-tile series the
/// admission tuner consumes.
struct TileMissCost {
  std::uint64_t fetches = 0;  ///< cache misses that re-read this tile
  double io_seconds = 0.0;    ///< Σ get_ranges time spent on it
  std::uint64_t bytes = 0;    ///< Σ bytes read for it
};

struct TileKeyLess {
  bool operator()(const TileKey& a, const TileKey& b) const {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.block_row != b.block_row) return a.block_row < b.block_row;
    return a.block_col < b.block_col;
  }
};
using TileCostMap = std::map<TileKey, TileMissCost, TileKeyLess>;

/// Per-query span tracer. Stage intervals are buffered per query and
/// flushed at end_query with the parent "serveQuery" span FIRST — the
/// causal nesting forest resolves same-t_begin ties by record order, so
/// the parent must precede its children in the stream.
class QueryTracer {
 public:
  struct Config {
    sched::TraceSink* sink = nullptr;       ///< span stream (may be null)
    telemetry::Registry* metrics = nullptr; ///< histogram home (may be null)
    /// Measure even without a sink or registry (an SLO monitor alone
    /// still needs the per-query breakdowns end_query returns).
    bool force = false;
  };

  QueryTracer() = default;  // inert
  explicit QueryTracer(const Config& cfg);

  /// True when any output (sink, registry, or a forced consumer of the
  /// end_query stats) is configured; when false every method is a no-op
  /// and the tracer never reads the clock.
  bool active() const {
    return sink_ != nullptr || metrics_ != nullptr || cfg_.force;
  }

  /// Mark the submission instant of a batch: subsequent begin_query calls
  /// observe (query start - batch start) into serve.queue.wait.
  void begin_batch();

  /// Open a query span (stage clock starts in kRoute). Resets any state a
  /// previous query left behind (e.g. after a hard-error unwind), so the
  /// tracer is always reusable.
  void begin_query(std::int64_t qid);

  /// Switch the stage clock; returns the previous stage so scopes can
  /// restore it. Same-stage switches merge (no interval is closed).
  Stage switch_stage(Stage s);

  /// Attribute one cache-miss store read to its tile.
  void record_miss(const TileKey& key, double io_seconds, std::uint64_t bytes);

  /// Note the admission outcome of a miss (zero-duration instant event).
  void note_admission(bool admitted);

  /// Close the query span, flush its events, observe the histograms, and
  /// return the measured breakdown. No-op ({}) when inactive or no query
  /// is open.
  QueryStats end_query(bool ok = true);

  /// Write the accumulated per-tile miss costs into the registry as
  /// serve.tile.miss.{fetches,seconds,bytes} gauges labelled by tile
  /// coordinate. Gauges are set to cumulative values, so re-publishing is
  /// idempotent. Cheap enough per batch, not per query.
  void publish_tile_costs();

 private:
  void close_segment(double t);

  Config cfg_;
  sched::TraceSink* sink_ = nullptr;
  telemetry::Registry* metrics_ = nullptr;

  // Resolved histogram handles (null when metrics_ is null).
  telemetry::Histogram* latency_ = nullptr;
  telemetry::Histogram* queue_wait_ = nullptr;
  std::array<telemetry::Histogram*, kNumStages> stage_hist_{};

  // Active-query state.
  bool in_query_ = false;
  std::int64_t qid_ = -1;
  double q_begin_ = 0.0;
  double batch_begin_ = -1.0;
  Stage cur_ = Stage::kRoute;
  double seg_begin_ = 0.0;
  std::array<double, kNumStages> stage_seconds_{};
  std::vector<sched::TraceEvent> pending_;  ///< stage intervals + instants

  TileCostMap tile_costs_;
};

/// RAII stage scope: switches the tracer's stage clock on entry and
/// restores the previous stage on exit, so nested scopes (walk → cache →
/// io) attribute every instant to the innermost stage.
class StageScope {
 public:
  StageScope(QueryTracer& t, Stage s) : t_(&t), prev_(t.switch_stage(s)) {}
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;
  ~StageScope() { t_->switch_stage(prev_); }

 private:
  QueryTracer* t_;
  Stage prev_;
};

// --- trace aggregation -------------------------------------------------------

/// One query reassembled from a captured trace.
struct ServeQueryBreakdown {
  int rank = 0;
  std::uint32_t qid = 0;
  double t_begin = 0.0;
  double total = 0.0;
  std::array<double, kNumStages> stage{};
  double coverage = 0.0;  ///< Σ stage intervals / total (≈ 1 when tiled)
  double max_gap = 0.0;   ///< worst gap OR overlap between intervals, s
};

/// Aggregate view of a serve trace: per-query breakdowns, latency
/// quantiles, overall + tail stage attribution, and the tiling check the
/// acceptance criteria gate on.
struct ServeTraceReport {
  bool ok = false;           ///< queries found and every span tree tiles
  std::string error;         ///< why not, when !ok
  int num_queries = 0;
  double p50 = 0.0;          ///< of per-query totals, seconds
  double p99 = 0.0;
  double total_seconds = 0.0;               ///< Σ query totals
  std::array<double, kNumStages> stage_seconds{};  ///< Σ per stage
  std::array<double, kNumStages> stage_share{};    ///< / total_seconds
  /// Mean stage shares among queries with total >= p99 — the tail
  /// attribution ("where do the slow queries spend their time").
  std::array<double, kNumStages> tail_share{};
  double min_coverage = 0.0;    ///< worst per-query coverage
  double max_gap = 0.0;         ///< worst per-query gap/overlap, s
  std::vector<ServeQueryBreakdown> queries;  ///< sorted slowest first
};

/// Reassemble per-query span trees from a raw event stream (a
/// CollectTraceSink snapshot or a re-loaded Chrome trace). `tolerance` is
/// the max gap/overlap (seconds) a query may show and still count as
/// tiled — 0 exactness holds for in-memory captures; round-tripped Chrome
/// traces carry µs-rounding, so callers pass ~2e-6.
ServeTraceReport analyze_serve_trace(const std::vector<sched::TraceEvent>& events,
                                     double tolerance = 2e-6);

/// Human-readable report: quantiles, stage split, tail attribution and
/// the top-k slowest queries with their full breakdowns.
std::string format_serve_report(const ServeTraceReport& r, int top_k = 10);

}  // namespace parfw::serve
