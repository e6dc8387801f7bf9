// PathService — answer path queries straight from a published tile
// manifest, never materialising the matrix (DESIGN.md §4.12).
//
// The service opens a ServeManifest over a CheckpointStore and answers
// QueryBatch requests (core/query.hpp): each distance read fetches one
// b x b value tile, each predecessor-walk step one pred tile, all through
// a byte-budgeted TileCache. A miss is one ranged store read of one
// contiguous tile, checked against the CRC32C from the blob's tile table;
// a mismatch is a hard error, never an answer. A cross-tile path walk is
// the interesting case: pred(src, cur) hops along block row src/b,
// touching a different pred tile every time cur crosses a block-column
// boundary — exactly the access pattern the cache's admission policy is
// shaped for.
//
// Semantics are pinned to the in-memory oracle: for every (src, dst),
// status, distance and path are bit-identical to what
// ApspResult::query(src, dst) returns on the gathered matrices. That
// equivalence — across variants, placements and crashed-and-resumed
// producers — is the serve_test contract.
#pragma once

#include <cstring>
#include <vector>

#include "core/query.hpp"
#include "serve/manifest.hpp"
#include "serve/qtrace.hpp"
#include "serve/slo.hpp"
#include "serve/tile_cache.hpp"
#include "telemetry/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace parfw::serve {

struct ServeOptions {
  std::size_t cache_budget_bytes = std::size_t{64} << 20;
  CacheAdmission admission = CacheAdmission::kAlways;
  std::size_t ghost_capacity = 4096;
  /// When set, the service publishes serve.query.latency and the
  /// per-stage serve.stage.*.latency histograms (seconds, at the finer
  /// serve bucket resolution), serve.query.count,
  /// serve.cache.{hits,misses,evictions,ghost_hits} counters,
  /// serve.cache.bytes_{resident,peak} gauges and per-tile
  /// serve.tile.miss.* gauges into it.
  telemetry::Registry* metrics = nullptr;
  /// When set, every query emits a span tree (serveQuery over
  /// route/cache/io/walk stage intervals, query id in `k`) through the
  /// shared trace seam — load the capture in trace_analyze --mode serve.
  sched::TraceSink* trace = nullptr;
  /// When set, every answered query's breakdown is fed to the monitor
  /// (rolling p50/p99 vs targets, burn rate, slow-query log).
  SloMonitor* slo = nullptr;
};

template <typename S>
class PathService {
 public:
  using T = typename S::value_type;

  explicit PathService(const CheckpointStore& store, ServeOptions opt = {})
      : store_(store),
        manifest_(ServeManifest::open(store)),
        opt_(opt),
        cache_(TileCacheConfig{opt.cache_budget_bytes, opt.admission,
                               opt.ghost_capacity}) {
    PARFW_CHECK_MSG(manifest_.elem_size() == sizeof(T),
                    "manifest stores " << manifest_.elem_size()
                                       << "-byte values, semiring wants "
                                       << sizeof(T));
    PARFW_CHECK_MSG(!manifest_.has_pred() ||
                        manifest_.pred_elem_size() == sizeof(std::int64_t),
                    "unsupported pred element size "
                        << manifest_.pred_elem_size());
    tracer_ = QueryTracer(QueryTracer::Config{
        opt_.trace, opt_.metrics, /*force=*/opt_.slo != nullptr});
    if (opt_.metrics != nullptr) {
      queries_ = &opt_.metrics->counter("serve.query.count");
      hits_ = &opt_.metrics->counter("serve.cache.hits");
      misses_ = &opt_.metrics->counter("serve.cache.misses");
      evictions_ = &opt_.metrics->counter("serve.cache.evictions");
      ghost_hits_ = &opt_.metrics->counter("serve.cache.ghost_hits");
      resident_ = &opt_.metrics->gauge("serve.cache.bytes_resident");
      peak_ = &opt_.metrics->gauge("serve.cache.bytes_peak");
    }
  }

  const ServeManifest& manifest() const { return manifest_; }
  const TileCacheStats& cache_stats() const { return cache_.stats(); }

  /// Answer one query; bit-identical to ApspResult::query on the gathered
  /// matrices. A path request against a values-only manifest hard-errors
  /// (mirroring the resume rule in dist/checkpoint.hpp): predecessors
  /// cannot be reconstructed from distances after the fact.
  ///
  /// `qid` names the query in the trace (`k` on its spans) and the slow
  /// log; -1 auto-assigns from a per-service counter. On the hard-error
  /// path the open span is abandoned — begin_query resets unconditionally,
  /// so the tracer stays usable after an unwind.
  QueryResult<T> query(std::int64_t src, std::int64_t dst,
                       bool want_path = true, std::int64_t qid = -1) {
    tracer_.begin_query(qid >= 0 ? qid : next_qid_++);
    QueryResult<T> r = query_impl(src, dst, want_path);
    finish_query();
    const QueryStats qs = tracer_.end_query();
    if (opt_.slo != nullptr && tracer_.active()) opt_.slo->record(qs);
    return r;
  }

  /// Answer a batch through the shared query API. Query i is traced as
  /// qid i; the batch instant anchors the serve.queue.wait series, and
  /// the accumulated per-tile miss costs are published at the end.
  std::vector<QueryResult<T>> answer(const QueryBatch& batch) {
    tracer_.begin_batch();
    std::vector<QueryResult<T>> out;
    out.reserve(batch.pairs.size());
    for (std::size_t i = 0; i < batch.pairs.size(); ++i) {
      const PathQuery& q = batch.pairs[i];
      out.push_back(query(q.src, q.dst, batch.want_paths,
                          static_cast<std::int64_t>(i)));
    }
    tracer_.publish_tile_costs();
    return out;
  }

 private:
  QueryResult<T> query_impl(std::int64_t src, std::int64_t dst,
                            bool want_path) {
    const auto n = static_cast<std::int64_t>(manifest_.n());
    PARFW_CHECK_MSG(src >= 0 && src < n && dst >= 0 && dst < n,
                    "query (" << src << ", " << dst << ") out of range for n="
                              << n);
    QueryResult<T> r;
    r.distance = value_at(src, dst);
    if (!manifest_.has_pred()) {
      PARFW_CHECK_MSG(
          !want_path,
          "path query (" << src << " -> " << dst
                         << ") against a values-only manifest "
                         << "(pred_elem_size == 0): the producing run did "
                         << "not set track_paths — re-solve with paths "
                         << "enabled, or ask for distances only");
      r.status = PathStatus::kNotTracked;
      return r;
    }
    if (src != dst && pred_at(src, dst) < 0) {
      r.status = PathStatus::kUnreachable;
      return r;
    }
    r.status = PathStatus::kFound;
    if (want_path) r.path = walk_path(src, dst);
    return r;
  }
  T value_at(std::int64_t i, std::int64_t j) {
    T v;
    std::memcpy(&v, entry_ptr(TileKind::kValue, i, j, sizeof(T)), sizeof(T));
    return v;
  }
  std::int64_t pred_at(std::int64_t i, std::int64_t j) {
    std::int64_t p;
    std::memcpy(&p, entry_ptr(TileKind::kPred, i, j, sizeof(p)), sizeof(p));
    return p;
  }

  /// Pointer to entry (i, j) inside its (cached or scratch) tile. Valid
  /// only until the next fetch.
  const std::uint8_t* entry_ptr(TileKind kind, std::int64_t i, std::int64_t j,
                                std::size_t es) {
    const std::uint64_t b = manifest_.block_size();
    const auto gi = static_cast<std::uint64_t>(i);
    const auto gj = static_cast<std::uint64_t>(j);
    const std::vector<std::uint8_t>& tile = fetch(kind, gi / b, gj / b);
    return tile.data() + ((gi % b) * b + (gj % b)) * es;
  }

  const std::vector<std::uint8_t>& fetch(TileKind kind, std::uint64_t I,
                                         std::uint64_t J) {
    const TileKey key{kind, static_cast<std::uint32_t>(I),
                      static_cast<std::uint32_t>(J)};
    StageScope cache_scope(tracer_, Stage::kCache);
    if (const auto* hit = cache_.find(key)) return *hit;
    // One ranged read per miss: a checkpoint v3 tile is contiguous. Its
    // CRC is checked inside the io stage, so a corrupt tile is a hard
    // error before any entry of it is used, and the check's cost shows
    // as io time.
    const dist::TileSlice slice = manifest_.tile_range(I, J, kind);
    const std::string& blob = manifest_.rank(manifest_.owner_of(I, J)).key;
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(slice.range.length));
    double io_seconds = 0.0;
    {
      StageScope io_scope(tracer_, Stage::kIo);
      const Timer io_timer;
      PARFW_CHECK_MSG(
          store_.get_ranges(blob, std::span<const ByteRange>(&slice.range, 1),
                            buf.data()),
          "rank blob '" << blob << "' vanished while serving");
      dist::verify_tile(buf, slice.crc32c, blob, I, J,
                        kind == TileKind::kPred);
      io_seconds = io_timer.seconds();
    }
    tracer_.record_miss(key, io_seconds,
                        static_cast<std::uint64_t>(buf.size()));
    const auto* stored = cache_.insert(key, buf);
    tracer_.note_admission(stored != nullptr);
    if (stored != nullptr) return *stored;
    // Not admitted: serve this one read from the scratch buffer.
    scratch_tile_ = std::move(buf);
    return scratch_tile_;
  }

  /// Pred-walk src -> dst, bit-identical to core reconstruct_path but
  /// pulling each pred entry through the tile cache. Reachability was
  /// already established via pred(src, dst).
  std::vector<std::int64_t> walk_path(std::int64_t src, std::int64_t dst) {
    StageScope walk_scope(tracer_, Stage::kWalk);
    if (src == dst) return {src};
    const auto n = static_cast<std::int64_t>(manifest_.n());
    std::vector<std::int64_t> rev;
    std::int64_t cur = dst;
    while (cur != src) {
      rev.push_back(cur);
      PARFW_CHECK_MSG(static_cast<std::int64_t>(rev.size()) <= n,
                      "pred cycle while reconstructing " << src << " -> "
                                                         << dst);
      cur = pred_at(src, cur);
      PARFW_CHECK_MSG(cur >= 0, "pred chain broke while reconstructing "
                                    << src << " -> " << dst);
    }
    rev.push_back(src);
    return {rev.rbegin(), rev.rend()};
  }

  void finish_query() {
    if (opt_.metrics == nullptr) return;
    queries_->inc();
    const TileCacheStats& s = cache_.stats();
    hits_->add(s.hits - published_.hits);
    misses_->add(s.misses - published_.misses);
    evictions_->add(s.evictions - published_.evictions);
    ghost_hits_->add(s.ghost_hits - published_.ghost_hits);
    resident_->set(static_cast<double>(s.bytes_resident));
    peak_->update_max(static_cast<double>(s.bytes_peak));
    published_ = s;
  }

  const CheckpointStore& store_;
  ServeManifest manifest_;
  ServeOptions opt_;
  TileCache cache_;
  std::vector<std::uint8_t> scratch_tile_;
  TileCacheStats published_;  ///< last stats synced into the registry
  QueryTracer tracer_;
  std::int64_t next_qid_ = 0;  ///< auto qids for untracked single queries
  telemetry::Counter* queries_ = nullptr;
  telemetry::Counter* hits_ = nullptr;
  telemetry::Counter* misses_ = nullptr;
  telemetry::Counter* evictions_ = nullptr;
  telemetry::Counter* ghost_hits_ = nullptr;
  telemetry::Gauge* resident_ = nullptr;
  telemetry::Gauge* peak_ = nullptr;
};

}  // namespace parfw::serve
