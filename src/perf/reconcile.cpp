#include "perf/reconcile.hpp"

#include <cmath>
#include <cstdio>
#include <set>

#include "graph/graph.hpp"
#include "mpisim/runtime.hpp"
#include "perf/des.hpp"
#include "sched/ir.hpp"
#include "semiring/semiring.hpp"
#include "telemetry/adapters.hpp"
#include "util/table.hpp"

namespace parfw::perf {

namespace {

/// Schedule-phase classification: op names from the IR are phases
/// (compute or comm); anything else ("msg", "retry", "oogHost", raw
/// "send"/"recv"/"comp") is auxiliary and excluded from share totals and
/// exact checks.
enum class PhaseClass { kCompute, kComm, kAux };

PhaseClass classify(const std::string& name) {
  using sched::OpKind;
  for (int i = 0; i <= static_cast<int>(OpKind::kCheckpoint); ++i) {
    const auto kind = static_cast<OpKind>(i);
    if (name == sched::op_name(kind))
      return sched::is_comm(kind) ? PhaseClass::kComm : PhaseClass::kCompute;
  }
  return PhaseClass::kAux;
}

std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * v);
  return buf;
}

}  // namespace

std::vector<std::string> ReconcileReport::exact_mismatches() const {
  std::vector<std::string> out;
  for (const PhaseDelta& p : phases) {
    if (!p.compute) continue;
    if (p.measured.count != p.modelled.count ||
        p.measured.flops != p.modelled.flops)
      out.push_back(p.phase);
  }
  return out;
}

std::vector<std::string> ReconcileReport::out_of_band() const {
  std::vector<std::string> out;
  for (const PhaseDelta& p : phases)
    if (std::abs(p.measured_share - p.modelled_share) > share_band)
      out.push_back(p.phase);
  return out;
}

std::string ReconcileReport::table() const {
  Table t({"phase", "n meas", "n model", "s meas", "s model", "share meas",
           "share model", "flag"});
  for (const PhaseDelta& p : phases) {
    std::string flag;
    if (p.compute && (p.measured.count != p.modelled.count ||
                      p.measured.flops != p.modelled.flops))
      flag = "EXACT-MISMATCH";
    else if (std::abs(p.measured_share - p.modelled_share) > share_band)
      flag = ">band";
    t.add_row({p.phase, std::to_string(p.measured.count),
               std::to_string(p.modelled.count), Table::num(p.measured.seconds),
               Table::num(p.modelled.seconds), pct(p.measured_share),
               pct(p.modelled_share), flag});
  }
  std::string out = t.str();
  char line[320];
  std::snprintf(line, sizeof(line),
                "\nwire bytes: measured %lld (registry %lld), modelled %lld; "
                "internode: measured %lld, modelled %lld -> %s "
                "(band: phase-share delta <= %.0f%%)\n",
                static_cast<long long>(measured_wire.bytes_total),
                static_cast<long long>(registry_send_bytes),
                static_cast<long long>(modelled_wire.bytes_total),
                static_cast<long long>(measured_wire.bytes_internode),
                static_cast<long long>(modelled_wire.bytes_internode),
                bytes_match() ? "EXACT MATCH" : "MISMATCH",
                100.0 * share_band);
  out += line;
  return out;
}

ReconcileReport reconcile(
    const std::map<std::string, sched::StatsTraceSink::OpStats>& measured,
    const std::map<std::string, sched::StatsTraceSink::OpStats>& modelled,
    const WireTotals& measured_wire, const WireTotals& modelled_wire,
    std::int64_t registry_send_bytes) {
  ReconcileReport rep;
  rep.measured_wire = measured_wire;
  rep.modelled_wire = modelled_wire;
  rep.registry_send_bytes = registry_send_bytes;

  std::set<std::string> names;
  for (const auto& [n, s] : measured) names.insert(n);
  for (const auto& [n, s] : modelled) names.insert(n);

  double meas_total = 0.0, model_total = 0.0;
  for (const std::string& n : names) {
    if (classify(n) == PhaseClass::kAux) continue;
    auto mi = measured.find(n);
    auto di = modelled.find(n);
    if (mi != measured.end()) meas_total += mi->second.seconds;
    if (di != modelled.end()) model_total += di->second.seconds;
  }

  for (const std::string& n : names) {
    const PhaseClass cls = classify(n);
    if (cls == PhaseClass::kAux) continue;
    PhaseDelta p;
    p.phase = n;
    p.compute = cls == PhaseClass::kCompute;
    if (auto it = measured.find(n); it != measured.end()) p.measured = it->second;
    if (auto it = modelled.find(n); it != modelled.end()) p.modelled = it->second;
    p.measured_share = meas_total > 0.0 ? p.measured.seconds / meas_total : 0.0;
    p.modelled_share = model_total > 0.0 ? p.modelled.seconds / model_total : 0.0;
    rep.phases.push_back(std::move(p));
  }
  return rep;
}

ReconcileReport reconcile_run(const dist::GridSpec& grid, int ranks_per_node,
                              std::size_t n, const dist::DistFwOptions& opt,
                              telemetry::Registry* metrics) {
  using S = MinPlus<float>;
  telemetry::Registry local_reg;
  telemetry::Registry& reg = metrics != nullptr ? *metrics : local_reg;
  telemetry::Counter& send_bytes = reg.counter("mpi.send_bytes");
  const std::uint64_t send_bytes_before = send_bytes.value();

  sched::StatsTraceSink measured;
  dist::DistFwOptions run_opt = opt;
  run_opt.diag = DiagStrategy::kLogSquaring;
  run_opt.trace = &measured;
  run_opt.metrics = &reg;

  mpi::RuntimeOptions ropt;
  ropt.node_model = grid.node_model(ranks_per_node);
  ropt.trace = &measured;
  ropt.metrics = &reg;

  DenseEntryGen<float> gen(7, 0.85, 1.0f, 90.0f, /*integral=*/true);
  const mpi::TrafficStats full = mpi::Runtime::run(
      grid.size(),
      [&](mpi::Comm& world) {
        const dist::GridCoord me = grid.coord_of(world.rank());
        dist::BlockCyclicMatrix<float> local(n, opt.block_size, grid, me);
        local.fill(gen);
        world.barrier();
        dist::parallel_fw_resume<S>(world, local, /*start_k=*/0, run_opt);
      },
      ropt);
  telemetry::publish_traffic_stats(reg, full);

  // parallel_fw splits the row/column communicators before the schedule
  // starts; that exchange is not in the schedule, so measure it alone (in
  // its own registry) and subtract it.
  telemetry::Registry split_reg;
  mpi::RuntimeOptions sropt;
  sropt.node_model = ropt.node_model;
  sropt.metrics = &split_reg;
  const mpi::TrafficStats split = mpi::Runtime::run(
      grid.size(),
      [&](mpi::Comm& world) { (void)dist::make_row_col_comms(world, grid); },
      sropt);

  FwProblem prob;
  prob.variant = opt.variant;
  prob.n = static_cast<double>(n);
  prob.b = static_cast<double>(opt.block_size);
  prob.offload_mx = static_cast<double>(opt.oog.mx);
  prob.offload_streams = static_cast<int>(opt.oog.num_streams);
  std::vector<int> node_of(static_cast<std::size_t>(grid.size()));
  for (int w = 0; w < grid.size(); ++w)
    node_of[static_cast<std::size_t>(w)] = ropt.node_model.node(w);
  const MachineConfig m = MachineConfig::summit();
  const BuiltProgram built = build_fw_program(m, prob, grid, node_of);
  sched::StatsTraceSink modelled;
  (void)simulate(built.programs, built.node_of, m, &modelled);

  WireTotals measured_wire;
  measured_wire.bytes_total =
      static_cast<std::int64_t>(full.bytes_total - split.bytes_total);
  measured_wire.bytes_internode =
      static_cast<std::int64_t>(full.bytes_internode - split.bytes_internode);
  const auto registry_bytes = static_cast<std::int64_t>(
      send_bytes.value() - send_bytes_before -
      split_reg.counter("mpi.send_bytes").value());
  return reconcile(measured.table(), modelled.table(), measured_wire,
                   program_traffic(built.programs, built.node_of),
                   registry_bytes);
}

}  // namespace parfw::perf
