#include "serve/qtrace.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace parfw::serve {

namespace {

constexpr const char* kStageNames[kNumStages] = {"route", "cache", "io",
                                                 "walk"};
constexpr const char* kStageSpanNames[kNumStages] = {"serveRoute", "serveCache",
                                                     "serveIO", "serveWalk"};

bool is(const char* name, const char* want) {
  return std::strcmp(name, want) == 0;
}

/// Stage of a span name, or -1 when it is not a stage interval.
int stage_of_name(const char* name) {
  for (int s = 0; s < kNumStages; ++s)
    if (is(name, kStageSpanNames[s])) return s;
  return -1;
}

}  // namespace

const char* stage_name(Stage s) {
  return kStageNames[static_cast<std::size_t>(s)];
}
const char* stage_span_name(Stage s) {
  return kStageSpanNames[static_cast<std::size_t>(s)];
}

QueryTracer::QueryTracer(const Config& cfg)
    : cfg_(cfg), sink_(cfg.sink), metrics_(cfg.metrics) {
  if (metrics_ == nullptr) return;
  latency_ = &metrics_->histogram("serve.query.latency", "", kServeHistSub);
  queue_wait_ = &metrics_->histogram("serve.queue.wait", "", kServeHistSub);
  for (int s = 0; s < kNumStages; ++s) {
    const std::string name = std::string("serve.stage.") +
                             kStageNames[s] + ".latency";
    stage_hist_[static_cast<std::size_t>(s)] =
        &metrics_->histogram(name, "", kServeHistSub);
  }
}

void QueryTracer::begin_batch() {
  if (!active()) return;
  batch_begin_ = sched::now_seconds();
}

void QueryTracer::begin_query(std::int64_t qid) {
  if (!active()) return;
  const double t = sched::now_seconds();
  if (batch_begin_ >= 0.0 && queue_wait_ != nullptr)
    queue_wait_->observe(t - batch_begin_);
  in_query_ = true;
  qid_ = qid;
  q_begin_ = t;
  cur_ = Stage::kRoute;
  seg_begin_ = t;
  stage_seconds_.fill(0.0);
  pending_.clear();
}

Stage QueryTracer::switch_stage(Stage s) {
  const Stage prev = cur_;
  if (!active() || !in_query_ || s == cur_) {
    cur_ = s;
    return prev;
  }
  const double t = sched::now_seconds();
  close_segment(t);
  cur_ = s;
  seg_begin_ = t;
  return prev;
}

void QueryTracer::close_segment(double t) {
  const double d = t - seg_begin_;
  if (d <= 0.0) return;  // zero-length segments contribute nothing
  stage_seconds_[static_cast<std::size_t>(cur_)] += d;
  if (sink_ != nullptr) {
    sched::TraceEvent e;
    e.name = stage_span_name(cur_);
    e.k = static_cast<std::uint32_t>(qid_);
    e.t_begin = seg_begin_;
    e.t_end = t;
    pending_.push_back(e);
  }
}

void QueryTracer::record_miss(const TileKey& key, double io_seconds,
                              std::uint64_t bytes) {
  if (!active()) return;
  TileMissCost& c = tile_costs_[key];
  ++c.fetches;
  c.io_seconds += io_seconds;
  c.bytes += bytes;
}

void QueryTracer::note_admission(bool admitted) {
  if (sink_ == nullptr || !in_query_) return;
  const double t = sched::now_seconds();
  sched::TraceEvent e;
  e.name = admitted ? "serveAdmit" : "serveBypass";
  e.k = static_cast<std::uint32_t>(qid_);
  e.t_begin = t;
  e.t_end = t;  // instant
  pending_.push_back(e);
}

QueryStats QueryTracer::end_query(bool ok) {
  if (!active() || !in_query_) return {};
  const double t = sched::now_seconds();
  close_segment(t);
  in_query_ = false;

  QueryStats q;
  q.qid = qid_;
  q.t_begin = q_begin_;
  q.total = t - q_begin_;
  q.stage = stage_seconds_;
  q.ok = ok;

  if (sink_ != nullptr) {
    // Parent first: the causal nesting forest breaks same-t_begin ties by
    // record order, so the query span must precede its stage intervals.
    sched::TraceEvent parent;
    parent.name = "serveQuery";
    parent.k = static_cast<std::uint32_t>(qid_);
    parent.t_begin = q_begin_;
    parent.t_end = t;
    sink_->record(parent);
    for (const sched::TraceEvent& e : pending_) sink_->record(e);
  }
  pending_.clear();

  if (latency_ != nullptr) latency_->observe(q.total);
  if (metrics_ != nullptr) {
    // Every stage observes every query (zeros included) so the stage
    // histogram counts equal the query count and the sums reconcile with
    // serve.query.latency by construction.
    for (int s = 0; s < kNumStages; ++s)
      stage_hist_[static_cast<std::size_t>(s)]->observe(
          q.stage[static_cast<std::size_t>(s)]);
  }
  return q;
}

void QueryTracer::publish_tile_costs() {
  if (metrics_ == nullptr) return;
  for (const auto& [key, cost] : tile_costs_) {
    std::ostringstream labels;
    labels << "kind=" << (key.kind == TileKind::kValue ? "value" : "pred")
           << ",row=" << key.block_row << ",col=" << key.block_col;
    const std::string l = labels.str();
    metrics_->gauge("serve.tile.miss.fetches", l)
        .set(static_cast<double>(cost.fetches));
    metrics_->gauge("serve.tile.miss.seconds", l).set(cost.io_seconds);
    metrics_->gauge("serve.tile.miss.bytes", l)
        .set(static_cast<double>(cost.bytes));
  }
}

// --- trace aggregation -------------------------------------------------------

ServeTraceReport analyze_serve_trace(
    const std::vector<sched::TraceEvent>& events, double tolerance) {
  ServeTraceReport r;

  // Reassemble: (rank, qid) -> parent span + stage intervals.
  struct Tree {
    const sched::TraceEvent* parent = nullptr;
    std::vector<const sched::TraceEvent*> stages;
  };
  std::map<std::pair<int, std::uint32_t>, Tree> trees;
  for (const sched::TraceEvent& e : events) {
    if (is(e.name, "serveQuery")) {
      trees[{e.rank, e.k}].parent = &e;
    } else if (stage_of_name(e.name) >= 0) {
      trees[{e.rank, e.k}].stages.push_back(&e);
    }
  }

  for (auto& [id, tree] : trees) {
    if (tree.parent == nullptr) {
      r.error = "stage intervals without a serveQuery parent (rank " +
                std::to_string(id.first) + ", qid " +
                std::to_string(id.second) + ")";
      return r;
    }
    ServeQueryBreakdown q;
    q.rank = id.first;
    q.qid = id.second;
    q.t_begin = tree.parent->t_begin;
    q.total = tree.parent->t_end - tree.parent->t_begin;

    std::sort(tree.stages.begin(), tree.stages.end(),
              [](const sched::TraceEvent* a, const sched::TraceEvent* b) {
                return a->t_begin < b->t_begin;
              });
    double covered = 0.0;
    double cursor = tree.parent->t_begin;
    for (const sched::TraceEvent* s : tree.stages) {
      const int st = stage_of_name(s->name);
      q.stage[static_cast<std::size_t>(st)] += s->t_end - s->t_begin;
      covered += s->t_end - s->t_begin;
      // Gap (positive) or overlap (negative) against the running cursor;
      // both break the tiling invariant.
      q.max_gap = std::max(q.max_gap, std::abs(s->t_begin - cursor));
      cursor = s->t_end;
    }
    q.max_gap = std::max(q.max_gap, std::abs(tree.parent->t_end - cursor));
    q.coverage = q.total > 0.0 ? covered / q.total : 1.0;
    r.queries.push_back(q);
  }

  r.num_queries = static_cast<int>(r.queries.size());
  if (r.num_queries == 0) {
    r.error = "no serve query spans in trace";
    return r;
  }

  std::vector<double> totals;
  totals.reserve(r.queries.size());
  r.min_coverage = 1e300;
  for (const ServeQueryBreakdown& q : r.queries) {
    totals.push_back(q.total);
    r.total_seconds += q.total;
    for (int s = 0; s < kNumStages; ++s)
      r.stage_seconds[static_cast<std::size_t>(s)] +=
          q.stage[static_cast<std::size_t>(s)];
    r.min_coverage = std::min(r.min_coverage, q.coverage);
    r.max_gap = std::max(r.max_gap, q.max_gap);
  }

  std::sort(totals.begin(), totals.end());
  auto quant = [&](double p) {
    auto i = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(totals.size())));
    if (i > 0) --i;
    return totals[std::min(i, totals.size() - 1)];
  };
  r.p50 = quant(0.50);
  r.p99 = quant(0.99);

  if (r.total_seconds > 0.0)
    for (int s = 0; s < kNumStages; ++s)
      r.stage_share[static_cast<std::size_t>(s)] =
          r.stage_seconds[static_cast<std::size_t>(s)] / r.total_seconds;

  // Tail attribution: mean per-query stage shares among queries at or
  // above p99.
  int tail_n = 0;
  for (const ServeQueryBreakdown& q : r.queries) {
    if (q.total < r.p99 || q.total <= 0.0) continue;
    ++tail_n;
    for (int s = 0; s < kNumStages; ++s)
      r.tail_share[static_cast<std::size_t>(s)] +=
          q.stage[static_cast<std::size_t>(s)] / q.total;
  }
  if (tail_n > 0)
    for (int s = 0; s < kNumStages; ++s)
      r.tail_share[static_cast<std::size_t>(s)] /= tail_n;

  std::sort(r.queries.begin(), r.queries.end(),
            [](const ServeQueryBreakdown& a, const ServeQueryBreakdown& b) {
              return a.total > b.total;
            });

  if (r.max_gap > tolerance) {
    r.error = "span tree not tiled: max gap/overlap " +
              std::to_string(r.max_gap) + " s exceeds tolerance " +
              std::to_string(tolerance) + " s";
    return r;
  }
  r.ok = true;
  return r;
}

std::string format_serve_report(const ServeTraceReport& r, int top_k) {
  std::ostringstream os;
  os << "serve trace: " << r.num_queries << " queries";
  if (!r.ok) {
    os << "\nERROR: " << r.error << "\n";
    return os.str();
  }
  os << ", p50 " << r.p50 * 1e6 << " us, p99 " << r.p99 * 1e6
     << " us, min coverage " << r.min_coverage << ", max gap "
     << r.max_gap * 1e9 << " ns\n";
  os << "\nstage split (share of wall time):\n";
  for (int s = 0; s < kNumStages; ++s) {
    os << "  " << kStageNames[s] << ": "
       << r.stage_seconds[static_cast<std::size_t>(s)] << " s ("
       << r.stage_share[static_cast<std::size_t>(s)] * 100.0 << "%)\n";
  }
  os << "\ntail attribution (mean stage share of queries >= p99):\n";
  for (int s = 0; s < kNumStages; ++s) {
    os << "  " << kStageNames[s] << ": "
       << r.tail_share[static_cast<std::size_t>(s)] * 100.0 << "%\n";
  }
  os << "\nslowest queries (rank/qid: total | route cache io walk, us):\n";
  const int n = std::min<int>(top_k, static_cast<int>(r.queries.size()));
  for (int i = 0; i < n; ++i) {
    const ServeQueryBreakdown& q = r.queries[static_cast<std::size_t>(i)];
    os << "  " << q.rank << "/" << q.qid << ": " << q.total * 1e6 << " | ";
    for (int s = 0; s < kNumStages; ++s)
      os << q.stage[static_cast<std::size_t>(s)] * 1e6
         << (s + 1 < kNumStages ? " " : "\n");
  }
  return os.str();
}

}  // namespace parfw::serve
