#include "monitor/monitor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "perf/cost_model.hpp"

namespace parfw::monitor {

namespace {

constexpr double kCostFloor = 1e-12;

/// Schedule-op kind by trace-event name (the interpreter records each
/// executed op under op_name(kind)); false for runtime events ("msg",
/// "recv", "retry", "oog*", ...). kCheckpoint is the last OpKind.
bool op_kind_of(const char* name, sched::OpKind* kind) {
  for (int k = 0; k <= static_cast<int>(sched::OpKind::kCheckpoint); ++k) {
    *kind = static_cast<sched::OpKind>(k);
    if (std::strcmp(name, sched::op_name(*kind)) == 0) return true;
  }
  return false;
}

}  // namespace

RunMonitor::RunMonitor(MonitorConfig cfg, sched::RingTraceSink* ring,
                       IncidentLog* incidents)
    : cfg_(cfg), ring_(ring), incidents_(incidents) {}

void RunMonitor::on_schedule(const sched::Schedule& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (have_schedule_ && s.variant == variant_ && s.nb == sched_nb_ &&
      s.b == sched_b_ && s.grid.rows() == pr_ && s.grid.cols() == pc_ &&
      s.steps.size() == sched_steps_)
    return;  // every rank hands over the identical schedule — first wins
  adopt_locked(s);
  have_schedule_ = true;
}

void RunMonitor::adopt_locked(const sched::Schedule& s) {
  variant_ = s.variant;
  sched_nb_ = s.nb;
  sched_b_ = s.b;
  sched_steps_ = s.steps.size();
  pr_ = s.grid.rows();
  pc_ = s.grid.cols();
  const int nranks = s.grid.size();
  program_.assign(static_cast<std::size_t>(nranks), {});
  total_cost_.assign(static_cast<std::size_t>(nranks), 0.0);
  state_.assign(static_cast<std::size_t>(nranks), {});
  drift_.clear();
  ops_total_ = s.steps.size();
  // The run as the DES would price it; offload chunking stays at the
  // FwProblem defaults.
  perf::FwProblem prob;
  prob.n = static_cast<double>(s.nb * s.b);
  prob.b = static_cast<double>(s.b);
  prob.variant = s.variant;
  const perf::GridShape shape{pr_, pc_, s.grid.qr(), s.grid.qc()};
  for (const sched::Step& st : s.steps) {
    if (st.rank < 0 || st.rank >= nranks) continue;
    const double c = std::max(perf::op_cost(st.op, s.grid.coord_of(st.rank),
                                            cfg_.machine, prob, shape),
                              kCostFloor);
    program_[static_cast<std::size_t>(st.rank)].push_back({st.op.kind, c});
    total_cost_[static_cast<std::size_t>(st.rank)] += c;
  }
}

void RunMonitor::record(const sched::TraceEvent& e) {
  if (ring_ != nullptr) ring_->record(e);  // recorder first: an incident
                                           // window includes its trigger
  std::lock_guard<std::mutex> lock(mu_);
  if (!saw_event_) {
    saw_event_ = true;
    t0_ = e.t_begin;
    last_report_t_ = e.t_begin;
  }
  t_last_ = std::max(t_last_, e.t_end);

  if (std::strcmp(e.name, "retry") == 0) {
    retries_.push_back(e.t_end);
    while (!retries_.empty() &&
           retries_.front() < e.t_end - cfg_.retransmit_window_s)
      retries_.pop_front();
    if (incidents_ != nullptr && retries_.size() >= cfg_.retransmit_threshold) {
      std::ostringstream d;
      d << retries_.size() << " retransmissions in "
        << cfg_.retransmit_window_s << "s";
      incidents_->fire("retransmit_storm", e.t_end, e.rank, d.str());
      retries_.clear();
    }
    return;
  }

  sched::OpKind kind{};
  if (!op_kind_of(e.name, &kind) || !have_schedule_) return;  // runtime event
  if (e.rank < 0 || e.rank >= static_cast<int>(program_.size())) return;

  RankState& rs = state_[static_cast<std::size_t>(e.rank)];
  const std::vector<PredOp>& prog = program_[static_cast<std::size_t>(e.rank)];
  std::size_t i = rs.cursor;
  while (i < prog.size() && prog[i].kind != kind) ++i;
  if (i == prog.size()) return;  // not in this rank's remaining program
  // Credit everything up to the matched op: ops between cursor and i
  // produced no event (untraced in this configuration) but are done.
  for (std::size_t j = rs.cursor; j <= i; ++j) rs.done_cost += prog[j].cost;
  rs.ops_done += i - rs.cursor + 1;
  rs.cursor = i + 1;
  const double pred = prog[i].cost;
  const double dur = e.t_end - e.t_begin;
  rs.actual_s += dur;

  Drift& dr = drift_[e.name];
  dr.pred += pred;
  dr.actual += dur;
  dr.ops += 1;

  if (incidents_ != nullptr && kind != sched::OpKind::kCheckpoint) {
    const double limit =
        std::max(cfg_.overrun_factor * pred, cfg_.min_overrun_s);
    if (dur > limit) {
      std::ostringstream d;
      d << e.name << " k=" << e.k << " took " << dur << "s, predicted "
        << pred << "s";
      incidents_->fire("op_overrun", e.t_end, e.rank, d.str());
    }
  }

  if (incidents_ != nullptr && cfg_.skew_threshold > 0.0) {
    bool warmed = true;
    double min_p = 1.0, max_p = 0.0;
    int slowest = -1;
    for (std::size_t w = 0; w < total_cost_.size(); ++w) {
      if (total_cost_[w] <= 0.0) continue;
      if (state_[w].ops_done < cfg_.min_ops_per_rank) warmed = false;
      const double p = state_[w].done_cost / total_cost_[w];
      if (p < min_p) {
        min_p = p;
        slowest = static_cast<int>(w);
      }
      max_p = std::max(max_p, p);
    }
    if (warmed && slowest >= 0 && max_p - min_p > cfg_.skew_threshold) {
      std::ostringstream d;
      d << "rank " << slowest << " at " << 100.0 * min_p
        << "% while the front rank is at " << 100.0 * max_p << "%";
      incidents_->fire("straggler", e.t_end, slowest, d.str());
    }
  }

  maybe_report_locked(e.t_end);
}

ProgressReport RunMonitor::snapshot_locked(double t) const {
  ProgressReport r;
  r.t = t;
  r.elapsed_s = saw_event_ ? t - t0_ : 0.0;
  r.ops_total = ops_total_;
  double min_p = 1.0, max_p = 0.0;
  double sum_done = 0.0, sum_actual = 0.0;
  bool any = false;
  for (std::size_t w = 0; w < total_cost_.size(); ++w) {
    if (total_cost_[w] <= 0.0) continue;
    any = true;
    const double p = state_[w].done_cost / total_cost_[w];
    if (p < min_p) {
      min_p = p;
      r.slowest_rank = static_cast<int>(w);
    }
    max_p = std::max(max_p, p);
    sum_done += state_[w].done_cost;
    sum_actual += state_[w].actual_s;
    r.ops_done += state_[w].ops_done;
  }
  if (!any) return r;
  r.progress = min_p;
  r.skew = max_p - min_p;
  const double global_slowdown = sum_done > 0.0 ? sum_actual / sum_done : 1.0;
  r.slowdown = global_slowdown;
  for (std::size_t w = 0; w < total_cost_.size(); ++w) {
    if (total_cost_[w] <= 0.0) continue;
    const double slow_w = state_[w].done_cost > 0.0
                              ? state_[w].actual_s / state_[w].done_cost
                              : global_slowdown;
    r.eta_s = std::max(r.eta_s, (total_cost_[w] - state_[w].done_cost) *
                                    slow_w);
    r.predicted_total_s = std::max(r.predicted_total_s, total_cost_[w]);
  }
  return r;
}

void RunMonitor::maybe_report_locked(double t) {
  if (!have_schedule_) return;
  if (t - last_report_t_ < cfg_.progress_interval_s) return;
  last_report_t_ = t;
  const ProgressReport r = snapshot_locked(t);
  history_.push_back(r);
  if (cfg_.progress_out != nullptr) {
    std::fprintf(cfg_.progress_out, "%s\n", format_progress(r).c_str());
    std::fflush(cfg_.progress_out);
  }
}

ProgressReport RunMonitor::progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_locked(t_last_);
}

std::vector<ProgressReport> RunMonitor::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

std::map<std::string, RunMonitor::Drift> RunMonitor::drift() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_;
}

std::string RunMonitor::format_summary() const {
  std::ostringstream os;
  os << "[monitor] drift (predicted vs actual, per op kind):";
  for (const auto& [name, d] : drift()) {
    os << "\n[monitor]   " << name << ": pred " << d.pred << "s actual "
       << d.actual << "s";
    if (d.pred > 0.0) os << " (x" << d.actual / d.pred << ")";
    os << " over " << d.ops << " ops";
  }
  return os.str();
}

void RunMonitor::finish() {
  ProgressReport r;
  {
    std::lock_guard<std::mutex> lock(mu_);
    r = snapshot_locked(t_last_);
  }
  if (cfg_.progress_out != nullptr) {
    std::fprintf(cfg_.progress_out, "%s\n%s\n", format_progress(r).c_str(),
                 format_summary().c_str());
    std::fflush(cfg_.progress_out);
  }
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->gauge("monitor.progress").set(r.progress);
    cfg_.metrics->gauge("monitor.eta_seconds").set(r.eta_s);
    cfg_.metrics->gauge("monitor.slowdown").set(r.slowdown);
    if (ring_ != nullptr)
      cfg_.metrics->gauge("trace.ring.dropped")
          .set(static_cast<double>(ring_->dropped()));
  }
}

std::string format_progress(const ProgressReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[monitor] %5.1f%% | elapsed %.3fs | eta %.3fs | "
                "slowdown %.2fx | slowest rank %d | skew %.2f | ops %zu/%zu",
                100.0 * r.progress, r.elapsed_s, r.eta_s, r.slowdown,
                r.slowest_rank, r.skew, r.ops_done, r.ops_total);
  return buf;
}

}  // namespace parfw::monitor
