// Measured-vs-modelled reconciliation (DESIGN.md §4.8).
//
// The schedule IR has two interpreters — the data-carrying distributed
// runtime and the metadata-costing DES — and both report through the
// trace seam. reconcile_run() is the one place that runs the SAME
// schedule through both and states, in one table, how far the model is
// from the measurement:
//
//   * compute phases: op counts and flop totals must match EXACTLY (both
//     sides replay the same per-rank op sequences — any difference is a
//     bug, and the report flags it);
//   * wire bytes: the mpisim TrafficStats total and internode bytes must
//     equal the DES program_traffic prediction EXACTLY, and the live
//     mpi.send_bytes counter must agree with TrafficStats;
//   * time: absolute durations are NOT comparable (the DES models the
//     paper's Summit GPUs; the measurement runs on the host CPU
//     substrate), so the report compares each phase's SHARE of total
//     phase time and flags phases whose measured and modelled shares
//     diverge by more than a stated band.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dist/grid.hpp"
#include "dist/parallel_fw.hpp"
#include "perf/schedule.hpp"
#include "sched/trace.hpp"
#include "telemetry/metrics.hpp"

namespace parfw::perf {

/// One phase (op name) in the reconciliation table.
struct PhaseDelta {
  std::string phase;
  sched::StatsTraceSink::OpStats measured;
  sched::StatsTraceSink::OpStats modelled;
  double measured_share = 0.0;  ///< fraction of Σ measured phase seconds
  double modelled_share = 0.0;  ///< fraction of Σ modelled phase seconds
  bool compute = true;  ///< compute phase (count/flops checked exactly)
};

struct ReconcileReport {
  std::vector<PhaseDelta> phases;  ///< sorted by phase name
  /// mpisim TrafficStats of the schedule; bytes only, because the DES
  /// lowering's send count is not mpisim's message count.
  WireTotals measured_wire;
  WireTotals modelled_wire;        ///< perf::program_traffic
  /// The same measured traffic read from the registry's mpi.send_bytes.
  std::int64_t registry_send_bytes = 0;
  double share_band = 0.25;  ///< max |measured - modelled| phase share

  /// Total and internode bytes equal the model, and both measured
  /// counters agree.
  bool bytes_match() const {
    return measured_wire.bytes_total == modelled_wire.bytes_total &&
           measured_wire.bytes_internode == modelled_wire.bytes_internode &&
           registry_send_bytes == measured_wire.bytes_total;
  }
  /// Compute phases whose op count or flop total differ (must be empty
  /// for two faithful interpreters of one schedule).
  std::vector<std::string> exact_mismatches() const;
  /// Phases whose time share diverges by more than share_band.
  std::vector<std::string> out_of_band() const;
  /// All three checks: exact byte match, exact compute counts, shares in
  /// band.
  bool ok() const {
    return bytes_match() && exact_mismatches().empty() && out_of_band().empty();
  }

  /// Human-readable side-by-side table (util/table) plus the wire-byte
  /// verdict line.
  std::string table() const;
};

/// Build the report from the two per-phase trace aggregations (real run
/// and DES run of the same schedule) plus the wire traffic of each side.
/// `measured`/`modelled` are StatsTraceSink::table() snapshots; non-phase
/// event names (message instants "msg", fault markers, "oogHost") are
/// folded out of the table and the share computation.
ReconcileReport reconcile(
    const std::map<std::string, sched::StatsTraceSink::OpStats>& measured,
    const std::map<std::string, sched::StatsTraceSink::OpStats>& modelled,
    const WireTotals& measured_wire, const WireTotals& modelled_wire,
    std::int64_t registry_send_bytes);

/// Run one float min-plus schedule through both interpreters and
/// reconcile them: dist::parallel_fw over mpisim (n x n matrix on `grid`,
/// `ranks_per_node` ranks per node) and the DES on
/// MachineConfig::summit(). The options map onto the DES problem
/// (variant, block size, oog.mx, oog.num_streams); their trace and
/// metrics fields are replaced. The run pins the diagonal to
/// log-squaring, the strategy the DES prices. A paths solve runs this same
/// schedule (its witness pass follows the gather, outside the schedule).
/// The row/column communicator split is measured alone and
/// subtracted, because the schedule does not contain it. When `metrics`
/// is set the real run records its live series there, plus its
/// TrafficStats snapshot (telemetry::publish_traffic_stats).
ReconcileReport reconcile_run(const dist::GridSpec& grid, int ranks_per_node,
                              std::size_t n, const dist::DistFwOptions& opt,
                              telemetry::Registry* metrics = nullptr);

}  // namespace parfw::perf
