#include "perf/schedule.hpp"

#include <algorithm>
#include <functional>

#include "core/diag_update.hpp"
#include "sched/ir.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace parfw::perf {

namespace {

/// Lowers single schedule-IR steps into per-rank op lists with the same
/// collective expansions (including node-aware relay order) as the
/// functional mpisim runtime. Unlike the runtime, which executes a
/// member's part of a collective when that member reaches it, lowering
/// emits exactly the ops of the one member whose step is being lowered —
/// so the IR's step order fully determines every process's program.
class ProgramBuilder {
 public:
  ProgramBuilder(const std::vector<int>& node_of, int ranks)
      : node_of_(node_of), progs_(static_cast<std::size_t>(ranks)) {}

  std::vector<RankProgram> take() { return std::move(progs_); }

  void comp(int w, double seconds, std::uint32_t k = 0,
            std::int16_t kind_src = -1, double flops = 0.0) {
    progs_[static_cast<std::size_t>(w)].push_back(
        Op{Op::Kind::kComp, seconds, -1, 0, 0, k, kind_src, flops});
  }
  void send(int src, int dst, std::int64_t bytes, std::int32_t tag,
            std::uint32_t k = 0, std::int16_t kind_src = -1) {
    progs_[static_cast<std::size_t>(src)].push_back(
        Op{Op::Kind::kSend, 0.0, dst, bytes, tag, k, kind_src});
  }
  void recv(int dst, int src, std::int32_t tag, std::uint32_t k = 0,
            std::int16_t kind_src = -1) {
    progs_[static_cast<std::size_t>(dst)].push_back(
        Op{Op::Kind::kRecv, 0.0, src, 0, tag, k, kind_src});
  }

  /// Node-aware member order — MUST match mpisim's Comm::relay_order.
  std::vector<int> relay_order(const std::vector<int>& members,
                               int root_idx) const {
    const int p = static_cast<int>(members.size());
    int max_node = 0;
    for (int w : members)
      max_node = std::max(max_node, node_of_[static_cast<std::size_t>(w)]);
    const long long nnodes = max_node + 1;
    const int root_node = node_of_[static_cast<std::size_t>(
        members[static_cast<std::size_t>(root_idx)])];
    std::vector<int> order{root_idx};
    std::vector<std::pair<long long, int>> rest;
    for (int i = 0; i < p; ++i) {
      if (i == root_idx) continue;
      const long long nd =
          (node_of_[static_cast<std::size_t>(
               members[static_cast<std::size_t>(i)])] -
           root_node + nnodes) %
          nnodes;
      rest.emplace_back(nd * p + i, i);
    }
    std::sort(rest.begin(), rest.end());
    for (const auto& [key, i] : rest) order.push_back(i);
    return order;
  }

  /// Binomial-tree broadcast: the ops of member `me_idx` only.
  void tree_member(const std::vector<int>& members, int root_idx, int me_idx,
                   std::int64_t bytes, std::int32_t tag, std::uint32_t k,
                   std::int16_t kind_src) {
    const int p = static_cast<int>(members.size());
    if (p <= 1 || bytes == 0) return;
    const std::vector<int> order = relay_order(members, root_idx);
    const int v = virtual_rank(order, me_idx);
    const int w = members[static_cast<std::size_t>(me_idx)];
    int mask = 1;
    while (mask < p) {
      if ((v & mask) != 0) {
        recv(w,
             members[static_cast<std::size_t>(
                 order[static_cast<std::size_t>(v ^ mask)])],
             tag, k, kind_src);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (v + mask < p)
        send(w,
             members[static_cast<std::size_t>(
                 order[static_cast<std::size_t>(v + mask)])],
             bytes, tag, k, kind_src);
      mask >>= 1;
    }
  }

  /// Segmented ring broadcast: the ops of member `me_idx` only. Few,
  /// large segments keep op counts tractable at 3072 ranks while still
  /// modelling the relay pipelining.
  void ring_member(const std::vector<int>& members, int root_idx, int me_idx,
                   std::int64_t bytes, std::int32_t tag, std::uint32_t k,
                   std::int16_t kind_src) {
    const int p = static_cast<int>(members.size());
    if (p <= 1 || bytes == 0) return;
    const std::vector<int> order = relay_order(members, root_idx);
    const int v = virtual_rank(order, me_idx);
    const int w = members[static_cast<std::size_t>(me_idx)];
    const std::int64_t nseg = std::clamp<std::int64_t>(bytes / (1 << 20), 1, 8);
    const std::int64_t seg = (bytes + nseg - 1) / nseg;
    for (std::int64_t s = 0; s < nseg; ++s) {
      const std::int64_t len = std::min(seg, bytes - s * seg);
      if (v > 0)
        recv(w,
             members[static_cast<std::size_t>(
                 order[static_cast<std::size_t>(v - 1)])],
             tag, k, kind_src);
      if (v + 1 < p)
        send(w,
             members[static_cast<std::size_t>(
                 order[static_cast<std::size_t>(v + 1)])],
             len, tag, k, kind_src);
    }
  }

  /// Segmented ring broadcast with BACKGROUND relays: the payload flows
  /// along per-rank NIC agents (process ids agent_of(r)), decoupled from
  /// the ranks' own programs. Rank-side ops: the root posts a zero-byte
  /// "ready" to its agent once the data exists; every other member waits
  /// for a zero-byte "done" from its agent at its own program point. The
  /// whole agent dataflow is emitted at the ROOT member's step (the
  /// collective's initiation point in the schedule), once.
  void ring_bg_member(const std::vector<int>& members, int root_idx,
                      int me_idx, std::int64_t bytes, std::int32_t tag,
                      const std::function<int(int)>& agent_of, std::uint32_t k,
                      std::int16_t kind_src) {
    const int p = static_cast<int>(members.size());
    if (p <= 1 || bytes == 0) return;
    const std::vector<int> order = relay_order(members, root_idx);
    const std::int64_t nseg = std::clamp<std::int64_t>(bytes / (1 << 20), 1, 8);
    const std::int64_t seg = (bytes + nseg - 1) / nseg;
    const std::int32_t ready_tag = tag + (1 << 22);
    const std::int32_t done_tag = tag + (1 << 23);

    const int w = members[static_cast<std::size_t>(me_idx)];
    if (me_idx != root_idx) {
      recv(w, agent_of(w), done_tag, k, kind_src);
      return;
    }
    send(w, agent_of(w), 0, ready_tag, k, kind_src);
    // Agent-side dataflow, in relay order.
    for (int v = 0; v < p; ++v) {
      const int wv = members[static_cast<std::size_t>(
          order[static_cast<std::size_t>(v)])];
      const int agent = agent_of(wv);
      const int succ_agent =
          v + 1 < p ? agent_of(members[static_cast<std::size_t>(
                          order[static_cast<std::size_t>(v + 1)])])
                    : -1;
      const int pred_agent =
          v > 0 ? agent_of(members[static_cast<std::size_t>(
                      order[static_cast<std::size_t>(v - 1)])])
                : -1;
      if (v == 0) {
        recv(agent, wv, ready_tag, k, kind_src);
        for (std::int64_t s2 = 0; s2 < nseg; ++s2)
          send(agent, succ_agent, std::min(seg, bytes - s2 * seg), tag, k,
               kind_src);
      } else {
        for (std::int64_t s2 = 0; s2 < nseg; ++s2) {
          recv(agent, pred_agent, tag, k, kind_src);
          if (succ_agent >= 0)
            send(agent, succ_agent, std::min(seg, bytes - s2 * seg), tag, k,
                 kind_src);
        }
        send(agent, wv, 0, done_tag, k, kind_src);
      }
    }
  }

 private:
  static int virtual_rank(const std::vector<int>& order, int me_idx) {
    for (int v = 0; v < static_cast<int>(order.size()); ++v)
      if (order[static_cast<std::size_t>(v)] == me_idx) return v;
    PARFW_CHECK_MSG(false, "member not in its own collective");
    return -1;
  }

  const std::vector<int>& node_of_;
  std::vector<RankProgram> progs_;
};

}  // namespace

BuiltProgram build_fw_program(const MachineConfig& m, const FwProblem& prob,
                              const dist::GridSpec& grid,
                              const std::vector<int>& node_of) {
  using dist::Variant;
  const int pr = grid.rows(), pc = grid.cols();
  const int P = grid.size();
  PARFW_CHECK(static_cast<int>(node_of.size()) == P);
  const bool bg_relays =
      prob.background_relays && prob.variant == Variant::kAsync;
  // Background relays add two NIC-agent processes per rank (row-panel and
  // col-panel chains get separate agents so their op streams never
  // interleave — provably deadlock-free FIFO chains).
  const int total_procs = bg_relays ? 3 * P : P;
  std::vector<int> full_node_of(static_cast<std::size_t>(total_procs));
  for (int i = 0; i < total_procs; ++i)
    full_node_of[static_cast<std::size_t>(i)] =
        node_of[static_cast<std::size_t>(i % P)];
  auto row_agent = [P](int w) { return P + w; };
  auto col_agent = [P](int w) { return 2 * P + w; };

  // The variant's schedule — the same IR dist::parallel_fw executes.
  sched::ScheduleParams sp;
  sp.variant = prob.variant;
  sp.nb = static_cast<std::size_t>(prob.n / prob.b);
  sp.b = static_cast<std::size_t>(prob.b);
  sp.word_bytes = static_cast<std::size_t>(m.word_bytes);
  sp.diag_flops = diag_update_flops(sp.b, DiagStrategy::kLogSquaring);
  const sched::Schedule schedule = sched::build_schedule(grid, sp);

  ProgramBuilder builder(full_node_of, total_procs);
  const double comp_scale = prob.comm_only ? 0.0 : 1.0;
  // Deterministic straggler jitter: factor in [1, 1 + comp_jitter],
  // hashed from (rank, per-rank op ordinal).
  std::vector<std::uint64_t> jitter_ctr(static_cast<std::size_t>(P), 0);
  auto jittered = [&](int w, double secs) {
    if (prob.comp_jitter <= 0.0 || secs <= 0.0) return secs;
    std::uint64_t h = 0x9e3779b97f4a7c15ull *
                      (static_cast<std::uint64_t>(w) * 1000003 +
                       ++jitter_ctr[static_cast<std::size_t>(w)]);
    const double u = static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
    return secs * (1.0 + prob.comp_jitter * u);
  };

  // Communicator member lists (world ranks).
  std::vector<std::vector<int>> col_members(static_cast<std::size_t>(pc));
  std::vector<std::vector<int>> row_members(static_cast<std::size_t>(pr));
  for (int r = 0; r < pr; ++r)
    for (int c = 0; c < pc; ++c) {
      const int w = grid.world_rank({r, c});
      col_members[static_cast<std::size_t>(c)].push_back(w);  // index r
      row_members[static_cast<std::size_t>(r)].push_back(w);  // index c
    }

  const GridShape shape{pr, pc, grid.qr(), grid.qc()};

  for (const sched::Step& step : schedule.steps) {
    const int w = step.rank;
    const sched::Op& op = step.op;
    const auto kind_src = static_cast<std::int16_t>(op.kind);

    const dist::GridCoord me = grid.coord_of(w);
    if (sched::is_comp(op.kind)) {
      const double secs = op_cost(op, me, m, prob, shape);
      builder.comp(w, jittered(w, comp_scale * secs), op.k, kind_src,
                   op.flops);
      continue;
    }

    // Comm step: resolve the collective's member list and this member's
    // index within it from the op kind and the rank's grid coordinate.
    const std::size_t k = op.k;
    const std::vector<int>* members = nullptr;
    int me_idx = -1;
    bool row_chain = false;  // which NIC-agent family (background relays)
    switch (op.kind) {
      case sched::OpKind::kDiagBcastRow:
        members = &row_members[k % static_cast<std::size_t>(pr)];
        me_idx = me.col;
        break;
      case sched::OpKind::kDiagBcastCol:
        members = &col_members[k % static_cast<std::size_t>(pc)];
        me_idx = me.row;
        break;
      case sched::OpKind::kRowPanelBcast:
        members = &col_members[static_cast<std::size_t>(me.col)];
        me_idx = me.row;
        row_chain = true;
        break;
      case sched::OpKind::kColPanelBcast:
        members = &row_members[static_cast<std::size_t>(me.row)];
        me_idx = me.col;
        break;
      default: PARFW_CHECK_MSG(false, "unexpected comm op kind");
    }

    if (op.coll == sched::CollKind::kRing && bg_relays) {
      builder.ring_bg_member(*members, op.root, me_idx, op.bytes, op.tag,
                             row_chain ? std::function<int(int)>(row_agent)
                                       : std::function<int(int)>(col_agent),
                             op.k, kind_src);
    } else if (op.coll == sched::CollKind::kRing) {
      builder.ring_member(*members, op.root, me_idx, op.bytes, op.tag, op.k,
                          kind_src);
    } else {
      builder.tree_member(*members, op.root, me_idx, op.bytes, op.tag, op.k,
                          kind_src);
    }
  }
  return BuiltProgram{builder.take(), std::move(full_node_of)};
}

std::vector<RankProgram> build_bcast_program(int ranks, std::int64_t bytes,
                                             bool ring,
                                             const std::vector<int>& node_of) {
  ProgramBuilder builder(node_of, ranks);
  std::vector<int> members(static_cast<std::size_t>(ranks));
  for (int i = 0; i < ranks; ++i) members[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < ranks; ++i) {
    if (ring)
      builder.ring_member(members, 0, i, bytes, 1, 0, -1);
    else
      builder.tree_member(members, 0, i, bytes, 1, 0, -1);
  }
  return builder.take();
}

WireTotals program_traffic(const std::vector<RankProgram>& programs,
                           const std::vector<int>& node_of) {
  PARFW_CHECK(programs.size() == node_of.size());
  WireTotals t;
  for (std::size_t w = 0; w < programs.size(); ++w)
    for (const Op& op : programs[w]) {
      if (op.kind != Op::Kind::kSend) continue;
      ++t.sends;
      t.bytes_total += op.bytes;
      if (node_of[w] != node_of[static_cast<std::size_t>(op.peer)])
        t.bytes_internode += op.bytes;
    }
  return t;
}

}  // namespace parfw::perf
