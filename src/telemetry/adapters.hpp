// Adapter hook promoting the pre-telemetry mpisim::TrafficStats into the
// metrics registry, so there is ONE export path.
//
// TrafficStats predates the registry and stays as a cheap view (tests and
// the supervision loop read it directly); this adapter publishes a
// snapshot of it into a Registry under the canonical metric names, after
// which every exporter (JSON / Prometheus / table) sees it alongside the
// native metrics.
//
// Header-only on purpose: the telemetry library itself depends only on
// util+sched; including this header is what pulls in mpisim, so only call
// sites that already link it pay the dependency.
#pragma once

#include <string>

#include "mpisim/runtime.hpp"
#include "telemetry/metrics.hpp"

namespace parfw::telemetry {

/// Publish a run's TrafficStats under mpi.* with the given label set.
/// The logical counters (messages / bytes) are the DES-comparable totals
/// — `mpi.bytes_total` published here is exactly what the reconciliation
/// report checks against perf::program_traffic. When the target registry
/// also received the World's LIVE series (RuntimeOptions::metrics), pass
/// a distinguishing label set (e.g. "scope=run") — the live series own
/// the unlabelled mpi.* namespace.
inline void publish_traffic_stats(Registry& r, const mpi::TrafficStats& s,
                                  const std::string& labels = "") {
  r.gauge("mpi.messages", labels).set(static_cast<double>(s.messages));
  r.gauge("mpi.bytes_total", labels).set(static_cast<double>(s.bytes_total));
  r.gauge("mpi.bytes_internode", labels)
      .set(static_cast<double>(s.bytes_internode));
  r.gauge("mpi.max_nic_bytes", labels)
      .set(static_cast<double>(s.max_nic_bytes));
  r.gauge("mpi.drops_injected", labels)
      .set(static_cast<double>(s.drops_injected));
  r.gauge("mpi.dups_injected", labels)
      .set(static_cast<double>(s.dups_injected));
  r.gauge("mpi.delays_injected", labels)
      .set(static_cast<double>(s.delays_injected));
  r.gauge("mpi.retries", labels).set(static_cast<double>(s.retries));
  r.gauge("mpi.retry_bytes", labels).set(static_cast<double>(s.retry_bytes));
  r.gauge("mpi.checkpoints", labels).set(static_cast<double>(s.checkpoints));
  r.gauge("mpi.checkpoint_bytes", labels)
      .set(static_cast<double>(s.checkpoint_bytes));
}

}  // namespace parfw::telemetry
