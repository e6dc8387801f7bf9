// Distributed Floyd-Warshall on a 2-D process grid — all paper variants.
//
//   kBaseline   Algorithm 3: bulk-synchronous Diag/Panel/Outer with tree
//               broadcasts.
//   kPipelined  Algorithm 4: look-ahead — the (k+1) panels receive their
//               OuterUpdate(k) first, so DiagUpdate(k+1), PanelUpdate(k+1)
//               and PanelBcast(k+1) proceed while everyone else is still
//               busy with OuterUpdate(k).
//   kAsync      kPipelined with the bandwidth-optimal ring broadcast for
//               PanelBcast (§3.3); DiagBcast stays on the latency-optimal
//               tree. Ring relays let PanelBcast(k+1) start before
//               PanelBcast(k) has fully drained.
//   kOffload    Me-ParallelFw: the local matrix lives on the host and the
//               OuterUpdate streams through a capacity-limited device via
//               ooGSrGemm (§4.3-4.4). Baseline schedule otherwise.
//
// The control flow of every variant lives in sched::build_schedule
// (src/sched/ir.hpp); this file is the DATA-CARRYING interpreter of that
// IR. It walks the generated Schedule, executes the steps addressed to
// this rank, and binds each op kind to real work: SRGEMM kernels for the
// compute ops, mpisim collectives for the broadcast ops, and the
// devsim/ooGSrGemm streaming path for offloaded OuterUpdates. The DES in
// src/perf/ interprets the SAME Schedule as cost metadata, so the two
// sides cannot drift apart.
//
// The interpreter moves and updates distances only. A paths solve runs
// the same schedule; the driver (driver.hpp) reads the predecessors off
// the gathered closed matrix afterwards with the witness pass
// (core/witness.hpp), so no predecessor crosses a broadcast or lands in a
// checkpoint cut.
//
// +Reordering (the paper's third legend) is not a code variant: it is the
// same kPipelined/kAsync schedule generated for GridSpec::tiled placement
// instead of GridSpec::row_major — the placement changes which messages
// cross a NIC.
//
// All variants produce bit-identical results to the sequential blocked FW
// (validated in tests, as the paper validates against sequential FW §5.1).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>

#include "core/checkpoint_store.hpp"
#include "core/diag_update.hpp"
#include "core/solve_options.hpp"
#include "devsim/device.hpp"
#include "dist/block_cyclic.hpp"
#include "dist/checkpoint.hpp"
#include "dist/grid.hpp"
#include "mpisim/communicator.hpp"
#include "mpisim/fault.hpp"
#include "offload/oog_srgemm.hpp"
#include "sched/ir.hpp"
#include "sched/trace.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/metrics.hpp"

namespace parfw::dist {

/// The variants are an IR concept now; re-exported so existing callers
/// keep writing dist::Variant / dist::variant_name.
using Variant = sched::Variant;
using sched::variant_name;

/// block_size / diag live in the shared SolveCommon base (see
/// core/solve_options.hpp).
struct DistFwOptions : SolveCommon {
  Variant variant = Variant::kAsync;
  /// kOffload: per-rank simulated device capacity and chunking.
  std::size_t device_memory_bytes = std::size_t{256} << 20;
  offload::OogConfig oog{};
  /// When set, every executed schedule op is recorded (begin/end on the
  /// sched::now_seconds() timeline). Must be thread-safe: mpisim ranks
  /// are threads and all record into the same sink.
  sched::TraceSink* trace = nullptr;
  /// When set, every rank thread hands over its freshly built Schedule
  /// (sched::ScheduleObserver::on_schedule) before executing any step —
  /// the seam the live run monitor (src/monitor/) uses to track schedule
  /// position, progress and ETA against the same IR both interpreters
  /// share. Must tolerate the repeated concurrent calls.
  sched::ScheduleObserver* schedule_observer = nullptr;
  /// When set, the interpreter lands per-phase series into this registry:
  /// a fw.phase.seconds{phase=...,variant=...} histogram (one observation
  /// per executed op — i.e. per k-round instance of that phase, across
  /// all ranks) plus fw.phase.count / fw.phase.bytes / fw.phase.flops
  /// counters carrying the schedule's modelled per-op metadata. The
  /// registry is shared by all rank threads; recording is lock-free.
  telemetry::Registry* metrics = nullptr;
  /// Checkpoint/restart knobs. Checkpoint cuts are emitted into the
  /// schedule iff resilience.store is set and checkpoint_every > 0; the
  /// driver's supervision loop (driver.hpp) also reads max_retries /
  /// send_timeout / max_restarts from here.
  ResilienceOptions resilience{};
  /// Deterministic fault injection, installed into RuntimeOptions by the
  /// driver. The interpreter itself only consumes the crash coordinate
  /// (crash_rank throws RankFailure at its first own step with global
  /// index >= crash_at_op); message faults live in the runtime.
  mpi::FaultPlan faults{};
  /// When set, the driver publishes the FINISHED run as a served tile
  /// manifest into this store: the gathered closed matrix (and, on paths
  /// runs, its witness predecessors) sharded over the run's own grid
  /// under k0 = nb, then the commit record (dist::publish_matrix).
  /// Checkpoint cuts never fire after the final round, so without this
  /// step a completed run leaves nothing the serving tier (src/serve/)
  /// can open. May alias resilience.store. Not owned; must outlive the
  /// run.
  CheckpointStore* publish_store = nullptr;
};

/// Row and column communicators of the 2-D grid: `row` spans my grid row
/// ranked by grid column (size P_c); `col` spans my grid column ranked by
/// grid row (size P_r). Split off `world` collectively — shared by the
/// solver and by the reconciliation that must reproduce the split's
/// traffic in isolation.
struct RowColComms {
  mpi::Comm row;
  mpi::Comm col;
};

inline RowColComms make_row_col_comms(mpi::Comm& world, const GridSpec& grid) {
  const GridCoord me = grid.coord_of(world.rank());
  mpi::Comm row = world.split(me.row, me.col);
  mpi::Comm col = world.split(me.col + grid.rows() + 7, me.row);
  PARFW_CHECK(row.size() == grid.cols() && col.size() == grid.rows());
  PARFW_CHECK(row.rank() == me.col && col.rank() == me.row);
  return RowColComms{std::move(row), std::move(col)};
}

/// Execute distributed FW on this rank's share of the matrix, starting at
/// pivot iteration `start_k` — the resume entry point. The matrix must
/// already hold the state of a run whose iterations < start_k completed
/// (a restored checkpoint; start_k = 0 = fresh input). Collective over
/// `world`, which must have exactly grid.size() ranks. On return the
/// local matrix holds this rank's blocks of the closed distance matrix.
template <typename S>
void parallel_fw_resume(mpi::Comm& world,
                        BlockCyclicMatrix<typename S::value_type>& a,
                        std::size_t start_k, const DistFwOptions& opt = {}) {
  static_assert(is_idempotent<S>(), "distributed FW requires idempotent ⊕");
  using T = typename S::value_type;
  const GridSpec& grid = a.grid();
  PARFW_CHECK(world.size() == grid.size());
  const GridCoord me = grid.coord_of(world.rank());
  PARFW_CHECK(me == a.coord());
  const std::size_t b = a.block_size();
  const std::size_t nb = a.num_blocks();
  const std::size_t nlr = a.local_block_rows(), nlc = a.local_block_cols();
  auto local = a.local().view();

  RowColComms comms = make_row_col_comms(world, grid);
  mpi::Comm& row_comm = comms.row;
  mpi::Comm& col_comm = comms.col;

  // Generate this run's schedule. The generator validates the geometry
  // (at least one block per process row/column). Checkpoint cuts are
  // emitted only when there is a store to receive the snapshots.
  sched::ScheduleParams sp;
  sp.variant = opt.variant;
  sp.nb = nb;
  sp.b = b;
  sp.word_bytes = sizeof(T);
  sp.diag_flops = diag_update_flops(b, opt.diag);
  sp.start_k = start_k;
  if (opt.resilience.store != nullptr)
    sp.checkpoint_every = opt.resilience.checkpoint_every;
  const sched::Schedule schedule = sched::build_schedule(grid, sp);
  if (opt.schedule_observer != nullptr)
    opt.schedule_observer->on_schedule(schedule);

  Matrix<T> akk(b, b);  // closed diagonal block of iteration k
  Matrix<T> diag_scratch(b, b);
  // Panel buffers, double-buffered by iteration parity: the pipelined
  // schedule stages iteration k+1's panels (slot (k+1) & 1) while the
  // bulk OuterUpdate(k) still reads slot k & 1.
  Matrix<T> rowp_buf[2] = {Matrix<T>(b, nlc * b), Matrix<T>(b, nlc * b)};
  Matrix<T> colp_buf[2] = {Matrix<T>(nlr * b, b), Matrix<T>(nlr * b, b)};

  // Optional per-rank device for the offload variant.
  std::unique_ptr<dev::Device> device;
  offload::OogConfig oog = opt.oog;
  if (opt.variant == Variant::kOffload) {
    dev::DeviceConfig dc;
    dc.memory_bytes = opt.device_memory_bytes;
    device = std::make_unique<dev::Device>(dc);
  }

  const int my = world.rank();
  oog.trace = opt.trace;
  oog.rank = my;
  oog.metrics = opt.metrics;
  auto bytes_of = [](auto& m_) {
    using MT = std::remove_reference_t<decltype(*m_.data())>;
    return std::span<std::uint8_t>{reinterpret_cast<std::uint8_t*>(m_.data()),
                                   m_.size() * sizeof(MT)};
  };

  // Injected crash coordinate: the global step index of the generated
  // schedule — the SAME ordering the DES interprets, so "crash at op N"
  // names one point in the run across replays. One-shot: the supervision
  // loop disarms it on restart.
  const bool crash_me =
      opt.faults.crash_armed() && opt.faults.crash_rank == my;
  // Injected straggler: this rank sleeps inside every op it executes, so
  // the stretch lands in the op's traced span (the overrun watchdog's
  // signal) without touching the data path.
  const bool slow_me = opt.faults.slow_armed() && opt.faults.slow_rank == my;

  std::int64_t step_index = -1;
  for (const sched::Step& step : schedule.steps) {
    ++step_index;
    if (step.rank != my) continue;
    if (crash_me && step_index >= opt.faults.crash_at_op)
      throw mpi::RankFailure(
          my, "injected crash at schedule op " + std::to_string(step_index) +
                  " (rank " + std::to_string(my) + ")");
    const sched::Op& op = step.op;
    const std::size_t k = op.k;
    const bool timed = opt.trace != nullptr || opt.metrics != nullptr;
    const double t0 = timed ? sched::now_seconds() : 0.0;
    Matrix<T>& rowp = rowp_buf[k & 1];
    Matrix<T>& colp = colp_buf[k & 1];

    switch (op.kind) {
      case sched::OpKind::kDiagUpdate: {
        // Owner closes A(k,k) in place and snapshots it into akk.
        auto dk = a.block(a.local_row(k), a.local_col(k));
        diag_update<S>(dk, opt.diag, diag_scratch.view());
        akk.view().copy_from(dk);
        break;
      }
      case sched::OpKind::kDiagBcastRow:
        row_comm.bcast_bytes(bytes_of(akk), op.root, op.tag);
        break;
      case sched::OpKind::kDiagBcastCol:
        col_comm.bcast_bytes(bytes_of(akk), op.root, op.tag);
        break;
      case sched::OpKind::kPanelUpdateRow: {
        // Left-multiply my row strip by akk (the strip includes the
        // diagonal block, for which the update is an idempotent no-op).
        if (nlc == 0) break;
        auto strip = local.sub(a.local_row(k) * b, 0, b, nlc * b);
        srgemm::multiply<S>(akk.view(), strip, strip);
        rowp.view().copy_from(strip);
        break;
      }
      case sched::OpKind::kPanelUpdateCol: {
        if (nlr == 0) break;
        auto strip = local.sub(0, a.local_col(k) * b, nlr * b, b);
        srgemm::multiply<S>(strip, akk.view(), strip);
        colp.view().copy_from(strip);
        break;
      }
      case sched::OpKind::kRowPanelBcast:
        // Down the process columns; tree or ring per the schedule. The
        // root side and receive side of the pipelined schedule are
        // distinct steps of the SAME collective (same tag/root) — each
        // rank executes exactly one of them.
        if (op.coll == sched::CollKind::kRing) {
          col_comm.ring_bcast_bytes(bytes_of(rowp), op.root, op.tag);
        } else {
          col_comm.bcast_bytes(bytes_of(rowp), op.root, op.tag);
        }
        break;
      case sched::OpKind::kColPanelBcast:
        if (op.coll == sched::CollKind::kRing)
          row_comm.ring_bcast_bytes(bytes_of(colp), op.root, op.tag);
        else
          row_comm.bcast_bytes(bytes_of(colp), op.root, op.tag);
        break;
      case sched::OpKind::kLookaheadRow: {
        // OuterUpdate(k) restricted to the (k+1) row strip, so iteration
        // k+1's phases can start before the bulk update (§3.1-3.2).
        if (nlc == 0) break;
        const std::size_t k1 = k + 1;
        auto strip = local.sub(a.local_row(k1) * b, 0, b, nlc * b);
        auto cp_blk = colp.sub(a.local_row(k1) * b, 0, b, b);
        srgemm::multiply_prepacked<S>(cp_blk, rowp.view(), strip);
        break;
      }
      case sched::OpKind::kLookaheadCol: {
        if (nlr == 0) break;
        const std::size_t k1 = k + 1;
        auto strip = local.sub(0, a.local_col(k1) * b, nlr * b, b);
        auto rp_blk = rowp.sub(0, a.local_col(k1) * b, b, b);
        srgemm::multiply_prepacked<S>(colp.view(), rp_blk, strip);
        break;
      }
      case sched::OpKind::kOuterUpdate: {
        // Bulk OuterUpdate(k) on the whole local matrix. Re-applying it
        // to panel strips (including look-ahead-updated ones) is an
        // idempotent no-op — every candidate is a valid path length. The
        // received panel buffers are dense and reused for every quadrant,
        // so the CPU path runs prepacked.
        if (local.empty()) break;
        if (op.offload) {
          (void)offload::oog_srgemm<S>(*device, colp.view(), rowp.view(),
                                       local, oog);
        } else {
          srgemm::multiply_prepacked<S>(colp.view(), rowp.view(), local);
        }
        break;
      }
      case sched::OpKind::kCheckpoint: {
        // Coordinated cut before iteration k. The offload variant first
        // drains the device so every tile is host-resident (ooGSrGemm is
        // synchronous, but the flush makes the guarantee explicit and
        // covers future async streaming). The barrier aligns all ranks
        // at the cut; commit_cut then snapshots, barriers again and has
        // rank 0 commit.
        if (device) device->synchronize();
        world.barrier();
        SchedulePosition pos;
        pos.variant = opt.variant;
        pos.k0 = k;
        pos.sched_op_index = static_cast<std::uint64_t>(step_index);
        const CutWrite cut = commit_cut<T>(world, opt.resilience.store, a, pos);
        if (opt.resilience.store != nullptr)
          world.world().add_checkpoint(cut.bytes, cut.seconds);
        break;
      }
    }

    if (slow_me)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opt.faults.slow_op_seconds));

    if (timed) {
      const double t1 = sched::now_seconds();
      if (opt.trace) {
        sched::TraceEvent e;
        e.rank = my;
        e.name = sched::op_name(op.kind);
        e.k = op.k;
        e.t_begin = t0;
        e.t_end = t1;
        e.bytes = op.bytes;
        e.flops = op.flops;
        // The IR op's match tag ties this span to the "msg"/"recv" events
        // its collective produced (causal analysis groups them by tag).
        e.tag = static_cast<std::int32_t>(op.tag);
        opt.trace->record(e);
      }
      if (opt.metrics) {
        const std::string labels = std::string("phase=") +
                                   sched::op_name(op.kind) +
                                   ",variant=" + variant_name(opt.variant);
        opt.metrics->histogram("fw.phase.seconds", labels).observe(t1 - t0);
        opt.metrics->counter("fw.phase.count", labels).inc();
        if (op.bytes > 0)
          opt.metrics->counter("fw.phase.bytes", labels)
              .add(static_cast<std::uint64_t>(op.bytes));
        if (op.flops > 0)
          opt.metrics->counter("fw.phase.flops", labels)
              .add(static_cast<std::uint64_t>(op.flops));
      }
    }
  }
}

/// Full run from fresh input.
template <typename S>
void parallel_fw(mpi::Comm& world, BlockCyclicMatrix<typename S::value_type>& a,
                 const DistFwOptions& opt = {}) {
  parallel_fw_resume<S>(world, a, /*start_k=*/0, opt);
}

}  // namespace parfw::dist
