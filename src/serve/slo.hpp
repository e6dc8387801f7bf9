// slo — rolling-window SLO monitoring for the serving tier
// (DESIGN.md §4.13).
//
// Consumes the per-query breakdowns the QueryTracer measures and keeps
// the three things an operator actually pages on:
//   * rolling-window p50/p99 against configurable latency targets,
//   * error-budget burn rate — the fraction of recent queries over the
//     p99 target, divided by the budgeted violation fraction (burn > 1
//     means the budget is being consumed faster than provisioned),
//   * a bounded slow-query log holding the FULL stage breakdown of the
//     most recent over-threshold queries, so a tail regression arrives
//     with its own attribution attached instead of just a number.
//
// Single-threaded, like the tracer that feeds it: one monitor per
// PathService.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "serve/qtrace.hpp"
#include "telemetry/metrics.hpp"

namespace parfw::serve {

struct SloReport;

struct SloConfig {
  double p50_target_s = 0.0;  ///< 0 = no p50 target
  double p99_target_s = 0.0;  ///< 0 = no p99 target (disables burn rate)
  /// Rolling window, in queries (count-based: the serve tier is batch
  /// driven, so a wall-clock window would alias on batch boundaries).
  std::size_t window = 4096;
  /// Queries slower than this land in the slow log; 0 derives it from
  /// p99_target_s (a query over target IS the interesting event).
  double slow_threshold_s = 0.0;
  std::size_t slow_log_capacity = 32;
  /// Budgeted violation fraction: burn_rate = violation share / budget.
  double budget = 0.01;
  /// Edge-triggered burn alert: on_burn_alert fires once when the burn
  /// rate crosses this threshold upward, and re-arms when it drops back
  /// under — so a sustained breach produces one alert, not one per query.
  /// The live monitor glues this to an incident dump. Requires a p99
  /// target (burn is undefined without one).
  double burn_alert_threshold = 1.0;
  std::function<void(const SloReport&)> on_burn_alert;

  double slow_threshold() const {
    return slow_threshold_s > 0.0 ? slow_threshold_s : p99_target_s;
  }
};

struct SloReport {
  std::uint64_t total = 0;         ///< queries recorded all-time
  std::size_t window_count = 0;    ///< queries in the rolling window
  double p50 = 0.0;                ///< window quantiles, seconds
  double p99 = 0.0;
  double p50_target = 0.0;
  double p99_target = 0.0;
  bool p50_ok = true;              ///< true when no target or under it
  bool p99_ok = true;
  std::uint64_t violations = 0;    ///< all-time queries over p99 target
  /// (window violation fraction) / budget; 0 without a p99 target.
  double burn_rate = 0.0;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig cfg = {});

  void record(const QueryStats& q);

  SloReport report() const;

  /// Most recent over-threshold queries, oldest first, bounded by
  /// slow_log_capacity.
  const std::deque<QueryStats>& slow_log() const { return slow_log_; }
  const SloConfig& config() const { return cfg_; }

  /// Publish serve.slo.{p50,p99,burn_rate,violations} gauges.
  void publish(telemetry::Registry& reg, const std::string& labels = "") const;

 private:
  SloConfig cfg_;
  std::uint64_t total_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<double> ring_;       ///< window of query totals
  std::size_t ring_next_ = 0;      ///< insertion cursor
  std::uint64_t window_violations_ = 0;
  std::vector<bool> ring_violated_;
  std::deque<QueryStats> slow_log_;
  bool burning_ = false;  ///< burn alert latch (edge triggering)
};

/// Human-readable SLO status line(s).
std::string format_slo_report(const SloReport& r);

/// Human-readable slow-query log with per-stage breakdowns.
std::string format_slow_log(const SloMonitor& m);

}  // namespace parfw::serve
