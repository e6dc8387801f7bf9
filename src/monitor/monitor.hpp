// RunMonitor — live progress/ETA and anomaly detection over a running
// solve (DESIGN.md §4.14).
//
// The monitor sits on the two observation seams the interpreter already
// has: it is a sched::TraceSink (every executed op, message and offload
// stage flows through record) and a sched::ScheduleObserver (every rank
// thread hands over the materialised Schedule before its first step). From
// the schedule it precomputes each rank's program and each op's predicted
// cost from perf::op_cost — the same price the DES lowering charges, so
// predicted compute seconds are device seconds (flops over the full-GPU
// rate, the §4.5 pipeline for offloaded tiles), not a per-rank share;
// comm ops get op_cost's first-order tree/ring price. From the trace it
// tracks each rank's cursor through that program. The quotient is live
// state no log line gives you:
//
//   progress   min over ranks of predicted-cost-weighted completion
//   ETA        max over ranks of remaining predicted cost x that rank's
//              observed slowdown (actual/predicted so far)
//   drift      per-op-kind predicted vs actual seconds
//   skew       progress spread across ranks (straggler signal)
//
// Anomaly triggers — an op overrunning its prediction, a retransmit storm,
// rank progress skew — fire into a monitor::IncidentLog, which dumps the
// flight-recorder window and computes causal blame (incident.hpp).
//
// Everything is computed from EVENT timestamps, never wall-clock reads, so
// feeding the same event sequence twice yields byte-identical progress
// history (the determinism test pins this).
//
// Thread-safe: record arrives concurrently from every rank thread.
#pragma once

#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "monitor/incident.hpp"
#include "perf/machine.hpp"
#include "sched/ir.hpp"
#include "sched/trace.hpp"
#include "telemetry/metrics.hpp"

namespace parfw::monitor {

struct MonitorConfig {
  /// Machine model perf::op_cost prices each op with. The ABSOLUTE scale
  /// cancels out of progress (a ratio) and is corrected by the observed
  /// slowdown in the ETA; only relative op weights matter.
  perf::MachineConfig machine = perf::MachineConfig::summit();
  /// Minimum event-time between progress lines.
  double progress_interval_s = 1.0;
  /// op_overrun trigger: an op whose duration exceeds
  /// max(overrun_factor x predicted, min_overrun_s). The floor keeps
  /// micro-ops (whose prediction is ~us) from tripping on scheduler noise.
  double overrun_factor = 8.0;
  double min_overrun_s = 0.05;
  /// straggler trigger: progress spread (max - min over ranks) above this
  /// fraction, once every rank has reported min_ops_per_rank ops.
  double skew_threshold = 0.5;
  std::size_t min_ops_per_rank = 2;
  /// retransmit_storm trigger: this many "retry" events inside a sliding
  /// retransmit_window_s window.
  std::size_t retransmit_threshold = 32;
  double retransmit_window_s = 1.0;
  /// When set, progress lines and the final summary print here (the CLI
  /// passes stderr — stdout stays byte-identical to an unmonitored run).
  std::FILE* progress_out = nullptr;
  /// When set, finish() exports monitor.progress / monitor.eta_seconds /
  /// trace.ring.dropped gauges.
  telemetry::Registry* metrics = nullptr;
};

/// One progress sample. All times are event-time seconds.
struct ProgressReport {
  double t = 0.0;            ///< event time of the sample
  double progress = 0.0;     ///< 0..1, predicted-cost-weighted
  double eta_s = 0.0;        ///< predicted remaining seconds
  double elapsed_s = 0.0;    ///< since the first observed event
  double predicted_total_s = 0.0;  ///< model total for the slowest rank
  double slowdown = 1.0;     ///< observed actual / predicted, global
  int slowest_rank = -1;     ///< rank with the least progress
  double skew = 0.0;         ///< max - min progress over ranks
  std::size_t ops_done = 0;
  std::size_t ops_total = 0;
};

class RunMonitor : public sched::TraceSink, public sched::ScheduleObserver {
 public:
  /// `ring` (optional, not owned) is forwarded EVERY event before any
  /// processing, making the monitor a drop-in sink that feeds the flight
  /// recorder; `incidents` (optional, not owned) receives the anomaly
  /// triggers.
  explicit RunMonitor(MonitorConfig cfg = {},
                      sched::RingTraceSink* ring = nullptr,
                      IncidentLog* incidents = nullptr);

  void record(const sched::TraceEvent& e) override;
  void on_schedule(const sched::Schedule& s) override;

  /// Current progress snapshot (computed on demand, event-time `t` is the
  /// latest event seen).
  ProgressReport progress() const;

  /// Every progress sample emitted so far, in order.
  std::vector<ProgressReport> history() const;

  /// Final line + per-op-kind drift summary to progress_out, gauges to
  /// metrics. Call after the solve returns; idempotent inputs give
  /// idempotent output (it does not mutate tracking state).
  void finish();

  /// Predicted vs actual seconds of the ops matched so far, per op kind.
  struct Drift {
    double pred = 0.0;
    double actual = 0.0;
    std::size_t ops = 0;
  };
  std::map<std::string, Drift> drift() const;

  /// The drift table as finish() prints it.
  std::string format_summary() const;

  const MonitorConfig& config() const { return cfg_; }

 private:
  struct PredOp {
    sched::OpKind kind;
    double cost;  ///< predicted seconds, floored at 1e-12
  };
  struct RankState {
    std::size_t cursor = 0;   ///< next unmatched op in the program
    double done_cost = 0.0;   ///< predicted seconds of completed ops
    double actual_s = 0.0;    ///< measured seconds of completed ops
    std::size_t ops_done = 0;
  };

  ProgressReport snapshot_locked(double t) const;
  void maybe_report_locked(double t);
  void adopt_locked(const sched::Schedule& s);

  const MonitorConfig cfg_;
  sched::RingTraceSink* ring_;
  IncidentLog* incidents_;

  mutable std::mutex mu_;
  bool have_schedule_ = false;
  sched::Variant variant_ = sched::Variant::kBaseline;
  std::size_t sched_nb_ = 0, sched_b_ = 0, sched_steps_ = 0;
  int pr_ = 0, pc_ = 0;
  std::vector<std::vector<PredOp>> program_;  ///< per rank
  std::vector<double> total_cost_;            ///< per rank
  std::vector<RankState> state_;              ///< per rank
  std::size_t ops_total_ = 0;
  std::map<std::string, Drift> drift_;        ///< per op kind
  bool saw_event_ = false;
  double t0_ = 0.0;            ///< first observed event begin
  double t_last_ = 0.0;        ///< latest observed event end
  double last_report_t_ = 0.0;
  std::deque<double> retries_;  ///< recent "retry" event times
  std::vector<ProgressReport> history_;
};

/// One progress line: "[monitor] 42.3% | elapsed ... | eta ...".
std::string format_progress(const ProgressReport& r);

}  // namespace parfw::monitor
