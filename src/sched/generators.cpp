// Schedule generators — the ONLY place a variant's control flow is
// written. dist::parallel_fw and perf::build_fw_program both interpret
// the Schedule these emit; see ir.hpp for the contract.
#include "sched/ir.hpp"

#include <algorithm>

namespace parfw::sched {

namespace {

/// Emission context: geometry plus the per-phase helpers shared by the
/// baseline and pipelined schedules.
struct Gen {
  const dist::GridSpec& grid;
  const ScheduleParams& p;
  Schedule& s;
  int pr, pc;
  std::size_t nb;
  double b, word;

  double owned(int mine, int procs) const {
    return static_cast<double>(dist::owned_blocks(nb, mine, procs));
  }
  std::int64_t rowp_bytes(int c) const {
    return static_cast<std::int64_t>(b * owned(c, pc) * b * word);
  }
  std::int64_t colp_bytes(int r) const {
    return static_cast<std::int64_t>(owned(r, pr) * b * b * word);
  }
  std::int64_t diag_bytes() const {
    return static_cast<std::int64_t>(b * b * word);
  }

  void comp(int rank, OpKind kind, std::size_t k, double flops) {
    Op op;
    op.kind = kind;
    op.k = static_cast<std::uint32_t>(k);
    op.flops = flops;
    op.offload = kind == OpKind::kOuterUpdate && p.variant == Variant::kOffload;
    s.steps.push_back({rank, op});
  }
  void comm(int rank, OpKind kind, std::size_t k, CollKind coll, int phase,
            int root, std::int64_t bytes) {
    Op op;
    op.kind = kind;
    op.k = static_cast<std::uint32_t>(k);
    op.coll = coll;
    op.tag = tag_of(k, phase);
    op.root = root;
    op.bytes = bytes;
    s.steps.push_back({rank, op});
  }

  CollKind panel_coll() const {
    return p.variant == Variant::kAsync ? CollKind::kRing : CollKind::kTree;
  }

  // DiagUpdate(k) on the owner, then DiagBcast(k) across the owner's
  // process row and down its process column (always tree: latency-bound).
  void diag_phase(std::size_t k) {
    const int krow = static_cast<int>(k % static_cast<std::size_t>(pr));
    const int kcol = static_cast<int>(k % static_cast<std::size_t>(pc));
    comp(grid.world_rank({krow, kcol}), OpKind::kDiagUpdate, k, p.diag_flops);
    for (int c = 0; c < pc; ++c)
      comm(grid.world_rank({krow, c}), OpKind::kDiagBcastRow, k, CollKind::kTree,
           kTagDiagRow, kcol, diag_bytes());
    for (int r = 0; r < pr; ++r)
      comm(grid.world_rank({r, kcol}), OpKind::kDiagBcastCol, k, CollKind::kTree,
           kTagDiagCol, krow, diag_bytes());
  }

  // PanelUpdate(k): the k-th process row closes its row strip, the k-th
  // process column its column strip.
  void panel_update_phase(std::size_t k) {
    const int krow = static_cast<int>(k % static_cast<std::size_t>(pr));
    const int kcol = static_cast<int>(k % static_cast<std::size_t>(pc));
    for (int c = 0; c < pc; ++c)
      comp(grid.world_rank({krow, c}), OpKind::kPanelUpdateRow, k,
           2.0 * b * b * owned(c, pc) * b);
    for (int r = 0; r < pr; ++r)
      comp(grid.world_rank({r, kcol}), OpKind::kPanelUpdateCol, k,
           2.0 * owned(r, pr) * b * b * b);
  }

  // PanelBcast(k) member steps. `roots` / `recvs` select which side of
  // the collective to emit (the pipelined schedule emits the root side
  // before the bulk OuterUpdate and the receive side after it; pass both
  // true for the bulk-synchronous placement of the whole collective).
  void row_panel_bcast(std::size_t k, bool roots, bool recvs) {
    const int krow = static_cast<int>(k % static_cast<std::size_t>(pr));
    for (int c = 0; c < pc; ++c)  // one collective per process column
      for (int r = 0; r < pr; ++r) {
        if (!(r == krow ? roots : recvs)) continue;
        comm(grid.world_rank({r, c}), OpKind::kRowPanelBcast, k, panel_coll(),
             kTagRowPanel, krow, rowp_bytes(c));
      }
  }
  void col_panel_bcast(std::size_t k, bool roots, bool recvs) {
    const int kcol = static_cast<int>(k % static_cast<std::size_t>(pc));
    for (int r = 0; r < pr; ++r)  // one collective per process row
      for (int c = 0; c < pc; ++c) {
        if (!(c == kcol ? roots : recvs)) continue;
        comm(grid.world_rank({r, c}), OpKind::kColPanelBcast, k, panel_coll(),
             kTagColPanel, kcol, colp_bytes(r));
      }
  }

  void outer_phase(std::size_t k) {
    for (int r = 0; r < pr; ++r)
      for (int c = 0; c < pc; ++c)
        comp(grid.world_rank({r, c}), OpKind::kOuterUpdate, k,
             2.0 * owned(r, pr) * b * owned(c, pc) * b * b);
  }

  // Coordinated checkpoint cut before iteration k: one op per rank, at a
  // point in the global order where every collective of iterations < k is
  // complete, so the tiles alone (plus k) define the remaining work. The
  // data interpreter binds this to barrier + snapshot + barrier; the DES
  // sees a zero-flop compute op. op.bytes records the rank's local tile
  // footprint (snapshot size metadata, not wire bytes).
  void checkpoint_phase(std::size_t k) {
    for (int r = 0; r < pr; ++r)
      for (int c = 0; c < pc; ++c) {
        Op op;
        op.kind = OpKind::kCheckpoint;
        op.k = static_cast<std::uint32_t>(k);
        op.bytes = static_cast<std::int64_t>(owned(r, pr) * b * owned(c, pc) *
                                             b * word);
        s.steps.push_back({grid.world_rank({r, c}), op});
      }
  }
  bool want_checkpoint(std::size_t k) const {
    return p.checkpoint_every > 0 && k > p.start_k &&
           k % p.checkpoint_every == 0;
  }

  // Look-ahead: OuterUpdate(k) restricted to the (k+1) panel strips, on
  // the ranks that own them. op.k carries k (the update iteration); the
  // strip location is k+1, derived by the interpreter.
  void lookahead_phase(std::size_t k, std::size_t k1) {
    const int k1row = static_cast<int>(k1 % static_cast<std::size_t>(pr));
    const int k1col = static_cast<int>(k1 % static_cast<std::size_t>(pc));
    for (int c = 0; c < pc; ++c)
      comp(grid.world_rank({k1row, c}), OpKind::kLookaheadRow, k,
           2.0 * b * owned(c, pc) * b * b);
    for (int r = 0; r < pr; ++r)
      comp(grid.world_rank({r, k1col}), OpKind::kLookaheadCol, k,
           2.0 * owned(r, pr) * b * b * b);
  }
};

}  // namespace

Schedule build_schedule(const dist::GridSpec& grid, const ScheduleParams& p) {
  const int pr = grid.rows(), pc = grid.cols();
  PARFW_CHECK_MSG(p.variant != Variant::kAuto,
                  "Variant::kAuto is a front-door request, not a schedule; "
                  "parfw::solve resolves it through the tuner first");
  PARFW_CHECK(p.nb > 0 && p.b > 0 && p.word_bytes > 0);
  PARFW_CHECK_MSG(p.nb >= static_cast<std::size_t>(pr) &&
                      p.nb >= static_cast<std::size_t>(pc),
                  "need at least one block per process row/column");
  PARFW_CHECK_MSG(p.start_k <= p.nb, "resume point beyond the last iteration");

  Schedule s;
  s.variant = p.variant;
  s.nb = p.nb;
  s.b = p.b;
  s.grid = grid;

  Gen g{grid,
        p,
        s,
        pr,
        pc,
        p.nb,
        static_cast<double>(p.b),
        static_cast<double>(p.word_bytes)};

  const bool pipelined =
      p.variant == Variant::kPipelined || p.variant == Variant::kAsync;

  if (!pipelined) {
    // Algorithm 3 (bulk synchronous); kOffload differs only in how the
    // interpreter binds kOuterUpdate (op.offload). Resuming from start_k
    // needs no prologue: each iteration regenerates its own panels.
    for (std::size_t k = p.start_k; k < p.nb; ++k) {
      if (g.want_checkpoint(k)) g.checkpoint_phase(k);
      g.diag_phase(k);
      g.panel_update_phase(k);
      g.row_panel_bcast(k, /*roots=*/true, /*recvs=*/true);
      g.col_panel_bcast(k, /*roots=*/true, /*recvs=*/true);
      g.outer_phase(k);
    }
    return s;
  }
  if (p.start_k == p.nb) return s;  // resumed past the end: nothing left

  // Algorithm 4 (pipelined / async). Prologue establishes the start_k
  // panels (start_k = 0 for a fresh run; a resume re-derives the panel
  // buffers from the checkpointed tiles — bit-identical, see
  // ScheduleParams::start_k); thereafter iteration k+1's Diag/Panel
  // phases and the root side of PanelBcast(k+1) run before the bulk
  // OuterUpdate(k), and the receive side after it.
  g.diag_phase(p.start_k);
  g.panel_update_phase(p.start_k);
  g.row_panel_bcast(p.start_k, true, true);
  g.col_panel_bcast(p.start_k, true, true);
  for (std::size_t k = p.start_k; k < p.nb; ++k) {
    // Cut at the top of body k: PanelBcast(k) recv sides closed in body
    // k-1, so the tiles already carry PanelUpdate(k) — exactly the state
    // the resume prologue(k) re-derives.
    if (g.want_checkpoint(k)) g.checkpoint_phase(k);
    const std::size_t k1 = k + 1;
    if (k1 < p.nb) {
      g.lookahead_phase(k, k1);
      g.diag_phase(k1);
      g.panel_update_phase(k1);
      g.row_panel_bcast(k1, /*roots=*/true, /*recvs=*/false);
      g.col_panel_bcast(k1, /*roots=*/true, /*recvs=*/false);
      g.outer_phase(k);
      g.row_panel_bcast(k1, /*roots=*/false, /*recvs=*/true);
      g.col_panel_bcast(k1, /*roots=*/false, /*recvs=*/true);
    } else {
      g.outer_phase(k);
    }
  }
  return s;
}

ScheduleTotals totals(const Schedule& s) {
  ScheduleTotals t;
  for (const Step& st : s.steps) {
    if (is_comp(st.op.kind)) {
      ++t.comp_ops;
      t.flops += st.op.flops;
    } else {
      ++t.comm_ops;
      t.payload_bytes += st.op.bytes;
    }
  }
  return t;
}

}  // namespace parfw::sched
