#include "tune/tune.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "causal/analysis.hpp"
#include "causal/graph.hpp"
#include "core/diag_update.hpp"
#include "perf/cost_model.hpp"
#include "perf/des.hpp"
#include "perf/experiments.hpp"
#include "perf/schedule.hpp"
#include "sched/ir.hpp"
#include "sched/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace parfw::tune {

// --- placement ---------------------------------------------------------------

dist::GridSpec Placement::grid() const {
  if (!tiled) return dist::GridSpec::row_major(pr, pc);
  PARFW_CHECK_MSG(kr > 0 && kc > 0 && pr % kr == 0 && pc % kc == 0,
                  "tiled placement: node grid must divide the process grid");
  return dist::GridSpec::tiled(kr, kc, pr / kr, pc / kc);
}

std::vector<int> Placement::node_of(int ranks_per_node) const {
  PARFW_CHECK_MSG(ranks_per_node > 0 && ranks() % ranks_per_node == 0,
                  "ranks_per_node must divide the rank count");
  std::vector<int> out(static_cast<std::size_t>(ranks()));
  for (int w = 0; w < ranks(); ++w)
    out[static_cast<std::size_t>(w)] = w / ranks_per_node;
  return out;
}

std::string Placement::name() const {
  char buf[64];
  if (tiled)
    std::snprintf(buf, sizeof buf, "%dx%d/%dx%d", kr, kc, qr(), qc());
  else
    std::snprintf(buf, sizeof buf, "%dx%d", pr, pc);
  return buf;
}

std::string Candidate::name() const {
  char buf[128];
  if (variant == sched::Variant::kOffload)
    std::snprintf(buf, sizeof buf, "%s %s b=%zu s=%d",
                  sched::variant_name(variant), placement.name().c_str(),
                  block, streams);
  else
    std::snprintf(buf, sizeof buf, "%s %s b=%zu",
                  sched::variant_name(variant), placement.name().c_str(),
                  block);
  return buf;
}

// --- candidate-space derivation ----------------------------------------------

namespace {

std::vector<std::pair<int, int>> factor_pairs(int x) {
  std::vector<std::pair<int, int>> out;
  for (int a = 1; a <= x; ++a)
    if (x % a == 0) out.emplace_back(a, x / a);
  return out;
}

/// Keep at most `cap` values, evenly spaced over the sorted input (the
/// endpoints always survive) — deterministic geometric-ish thinning.
std::vector<std::size_t> thin(std::vector<std::size_t> v, std::size_t cap) {
  if (v.size() <= cap || cap < 2) return v;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < cap; ++i) {
    const std::size_t j = i * (v.size() - 1) / (cap - 1);
    if (out.empty() || out.back() != v[j]) out.push_back(v[j]);
  }
  return out;
}

}  // namespace

std::vector<Placement> enumerate_placements(const Workload& w) {
  std::vector<Placement> out;
  for (const auto& [pr, pc] : factor_pairs(w.ranks)) {
    Placement p;
    p.pr = pr;
    p.pc = pc;
    out.push_back(p);
  }
  // Tiled (+Reordering) placements: node grid × intranode grid, with the
  // intranode tile holding exactly the node's ranks. Meaningless on one
  // node or with one rank per node (they coincide with naive shapes).
  if (w.nodes() > 1 && w.ranks_per_node > 1) {
    for (const auto& [kr, kc] : factor_pairs(w.nodes()))
      for (const auto& [qr, qc] : factor_pairs(w.ranks_per_node)) {
        Placement p;
        p.tiled = true;
        p.kr = kr;
        p.kc = kc;
        p.pr = kr * qr;
        p.pc = kc * qc;
        out.push_back(p);
      }
  }
  return out;
}

std::vector<std::size_t> derive_blocks(const Workload& w) {
  std::vector<std::size_t> out;
  for (std::size_t b = 8; b <= w.n / 2; ++b) {
    if (w.n % b != 0) continue;
    const std::size_t nb = w.n / b;
    // nb beyond the ceiling makes DES evaluation cost (∝ nb·P) explode;
    // nb < 2 is not a blocked run at all.
    if (nb >= 2 && nb <= kMaxBlocksPerDim) out.push_back(b);
  }
  return thin(std::move(out), 10);
}

// --- tuner -------------------------------------------------------------------

Tuner::Tuner(const Workload& w, const TuneOptions& opt)
    : workload_(w), opt_(opt) {
  PARFW_CHECK_MSG(w.n > 0 && w.ranks > 0 && w.ranks_per_node > 0 &&
                      w.word_bytes > 0,
                  "tuner workload must be fully specified");
  PARFW_CHECK_MSG(w.ranks % w.ranks_per_node == 0,
                  "ranks_per_node must divide the rank count");
  PARFW_CHECK_MSG(opt_.stall_weight >= 0.0,
                  "stall_weight must be non-negative");
  variants_ = opt.variants;
  if (variants_.empty())
    variants_.assign(std::begin(sched::kConcreteVariants),
                     std::end(sched::kConcreteVariants));
  for (sched::Variant v : variants_)
    PARFW_CHECK_MSG(v != sched::Variant::kAuto,
                    "kAuto cannot be a search-space member");
  placements_ = opt.placements.empty() ? enumerate_placements(w)
                                       : opt.placements;
  blocks_ = opt.blocks.empty() ? derive_blocks(w) : opt.blocks;
  PARFW_CHECK_MSG(!blocks_.empty(),
                  "no feasible block sizes for n=" << w.n
                                                   << " (need a divisor)");
  streams_ = opt.streams.empty() ? std::vector<int>{1, 2, 3} : opt.streams;
  for (int s : streams_)
    PARFW_CHECK_MSG(s >= 1 && s <= 3, "offload depth must be 1..3");
}

Candidate Tuner::default_candidate() const {
  Candidate c;
  c.variant = sched::Variant::kAsync;
  const auto [a, b] = perf::balanced_factors(workload_.ranks);
  c.placement.tiled = false;
  c.placement.pr = a;
  c.placement.pc = b;
  // The repo-default block size is the paper's 768; pick the nearest
  // value the workload admits (ties to the larger block) among blocks
  // this grid can actually schedule — a block per process row/column.
  const std::size_t dim = static_cast<std::size_t>(std::max(a, b));
  std::size_t best = 0;
  for (std::size_t blk : blocks_) {
    if (workload_.n / blk < dim) continue;
    const auto d = [](std::size_t x, std::size_t t) {
      return x > t ? x - t : t - x;
    };
    if (best == 0 || d(blk, 768) < d(best, 768) ||
        (d(blk, 768) == d(best, 768) && blk > best))
      best = blk;
  }
  c.block = best;
  PARFW_CHECK_MSG(feasible(c),
                  "no default-grid-feasible block size for n=" << workload_.n);
  return c.canonical();
}

bool Tuner::feasible(const Candidate& c, std::string* why) const {
  const auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (c.placement.ranks() != workload_.ranks)
    return fail("placement rank count != workload ranks");
  if (c.placement.tiled) {
    if (c.placement.kr <= 0 || c.placement.kc <= 0 ||
        c.placement.pr % c.placement.kr != 0 ||
        c.placement.pc % c.placement.kc != 0)
      return fail("node grid does not divide the process grid");
    if (c.placement.qr() * c.placement.qc() != workload_.ranks_per_node)
      return fail("intranode tile != ranks_per_node");
    if (c.placement.kr * c.placement.kc != workload_.nodes())
      return fail("node grid != node count");
  }
  if (c.block == 0 || workload_.n % c.block != 0)
    return fail("block size must divide n");
  const std::size_t nb = workload_.n / c.block;
  if (nb < static_cast<std::size_t>(std::max(c.placement.pr, c.placement.pc)))
    return fail("need at least one block per process row/column");
  if (c.variant == sched::Variant::kOffload && (c.streams < 1 || c.streams > 3))
    return fail("offload depth must be 1..3");
  return true;
}

double Tuner::lower_bound(const Candidate& c) const {
  // Deliberately not a sum of perf::op_cost prices, which depend on the
  // candidate's shape: both floors below hold for every candidate at once.
  (void)c;
  const double n = static_cast<double>(workload_.n);
  // Compute floor: total modelled flops over all GPUs (ranks sharing a
  // GPU serialise in the DES, so each rank gets half a device).
  const double compute =
      perf::model_compute_time(opt_.machine, n, workload_.ranks);
  // NIC floor: no placement moves less than W_min per node (§5.1.3), and
  // a node cannot ingest faster than nic_bw. Using the min over ALL node
  // grids keeps the bound sound for every candidate placement.
  double comm = 0.0;
  if (workload_.nodes() > 1)
    comm = perf::min_node_volume(opt_.machine, n, workload_.nodes()) /
           opt_.machine.nic_bw;
  return std::max(compute, comm);
}

std::uint64_t Tuner::key_of(const Candidate& cand) const {
  const Candidate c = cand.canonical();
  sched::ScheduleParams p;
  p.variant = c.variant;
  p.nb = workload_.n / c.block;
  p.b = c.block;
  p.word_bytes = workload_.word_bytes;
  p.diag_flops = diag_update_flops(c.block, DiagStrategy::kLogSquaring);
  std::uint64_t h = sched::hash_of(p);
  h = sched::hash_combine(h, static_cast<std::uint64_t>(c.placement.tiled));
  h = sched::hash_combine(h, static_cast<std::uint64_t>(c.placement.pr));
  h = sched::hash_combine(h, static_cast<std::uint64_t>(c.placement.pc));
  h = sched::hash_combine(h, static_cast<std::uint64_t>(c.placement.kr));
  h = sched::hash_combine(h, static_cast<std::uint64_t>(c.placement.kc));
  h = sched::hash_combine(h, static_cast<std::uint64_t>(c.streams));
  h = sched::hash_combine(h,
                          static_cast<std::uint64_t>(workload_.ranks_per_node));
  return h;
}

const Eval& Tuner::evaluate(const Candidate& cand) {
  const Candidate c = cand.canonical();
  std::string why;
  PARFW_CHECK_MSG(feasible(c, &why),
                  "cannot evaluate infeasible candidate " << c.name() << ": "
                                                          << why);
  const std::uint64_t key = key_of(c);
  if (auto it = cache_.find(key); it != cache_.end()) {
    PARFW_CHECK_MSG(it->second.candidate == c, "evaluation-cache key collision");
    ++cache_hits_;
    return it->second.eval;
  }

  Timer timer;
  perf::FwProblem prob;
  prob.n = static_cast<double>(workload_.n);
  prob.b = static_cast<double>(c.block);
  prob.variant = c.variant;
  prob.offload_streams = c.streams;
  const dist::GridSpec grid = c.placement.grid();
  const std::vector<int> node_of =
      c.placement.node_of(workload_.ranks_per_node);

  const perf::BuiltProgram built =
      perf::build_fw_program(opt_.machine, prob, grid, node_of);
  const perf::WireTotals wire =
      perf::program_traffic(built.programs, built.node_of);
  sched::CollectTraceSink sink;
  const perf::SimStats sim =
      perf::simulate(built.programs, built.node_of, opt_.machine, &sink);

  causal::BuildStats bstats;
  const causal::Graph g = causal::build_graph(sink.events(), &bstats);
  causal::BlameReport blame;
  std::string err;
  causal::AnalysisOptions aopt;
  aopt.top_k = 0;
  PARFW_CHECK_MSG(causal::analyze(g, aopt, &blame, &err),
                  "blame analysis failed for " << c.name() << ": " << err);
  PARFW_CHECK_MSG(blame.span == sim.makespan,
                  "critical-path length diverges from the DES makespan");

  Eval e;
  e.makespan = sim.makespan;
  e.stall_seconds = blame.category(causal::Category::kStall);
  e.stall_share = blame.share(causal::Category::kStall);
  e.comm_share = blame.share(causal::Category::kComm);
  e.compute_share = blame.share(causal::Category::kCompute);
  e.structural_floor = causal::structural_floor(blame);
  e.objective = e.makespan + opt_.stall_weight * e.stall_seconds;
  e.wire_bytes = wire.bytes_total;
  e.internode_bytes = static_cast<std::int64_t>(sim.internode_bytes);
  des_seconds_ += timer.seconds();

  auto [it, inserted] = cache_.emplace(key, CacheEntry{c, e});
  PARFW_CHECK(inserted);
  return it->second.eval;
}

namespace {

enum class Dim { kVariant, kPlacement, kBlock, kStreams };

const char* dim_name(Dim d) {
  switch (d) {
    case Dim::kVariant: return "variant";
    case Dim::kPlacement: return "placement";
    case Dim::kBlock: return "block";
    case Dim::kStreams: return "streams";
  }
  return "?";
}

/// Blame-guided sweep order: each category's relief comes from different
/// dimensions (stall = the schedule's shape: variant, then placement;
/// comm = where the bytes flow: placement, then block; compute = the
/// granularity: block, then variant). Categories are visited by
/// descending share and their dimensions appended, deduplicated.
std::vector<Dim> dimension_order(const Eval& seed) {
  struct Cat {
    double share;
    Dim dims[2];
  };
  std::vector<Cat> cats = {
      {seed.stall_share, {Dim::kVariant, Dim::kPlacement}},
      {seed.comm_share, {Dim::kPlacement, Dim::kBlock}},
      {seed.compute_share, {Dim::kBlock, Dim::kVariant}},
  };
  std::stable_sort(cats.begin(), cats.end(),
                   [](const Cat& a, const Cat& b) { return a.share > b.share; });
  std::vector<Dim> order;
  const auto push = [&order](Dim d) {
    if (std::find(order.begin(), order.end(), d) == order.end())
      order.push_back(d);
  };
  for (const Cat& c : cats)
    for (Dim d : c.dims) push(d);
  for (Dim d : {Dim::kVariant, Dim::kPlacement, Dim::kBlock, Dim::kStreams})
    push(d);
  return order;
}

}  // namespace

TuneReport Tuner::run() { return run(default_candidate()); }

TuneReport Tuner::run(const Candidate& seed_in) {
  TuneReport r;
  r.workload = workload_;
  r.seed = seed_in.canonical();

  const std::size_t hits0 = cache_hits_;
  const std::size_t size0 = cache_.size();
  const double des0 = des_seconds_;

  // Full product size (offload multiplies by the depth dimension).
  const bool has_offload =
      std::find(variants_.begin(), variants_.end(),
                sched::Variant::kOffload) != variants_.end();
  const std::size_t non_offload = variants_.size() - (has_offload ? 1 : 0);
  r.space_size = placements_.size() * blocks_.size() *
                 (non_offload + (has_offload ? streams_.size() : 0));

  r.seed_eval = evaluate(r.seed);
  Candidate best = r.seed;
  Eval best_eval = r.seed_eval;

  const std::vector<Dim> order = dimension_order(r.seed_eval);
  for (Dim d : order) {
    if (!r.dimension_order.empty()) r.dimension_order += ',';
    r.dimension_order += dim_name(d);
  }

  const auto consider = [&](Candidate c) {
    c = c.canonical();
    if (c == best) return;
    if (!feasible(c)) {
      ++r.infeasible;
      return;
    }
    if (lower_bound(c) > best_eval.objective) {
      ++r.pruned;
      return;
    }
    const Eval& e = evaluate(c);
    if (e.objective < best_eval.objective) {
      best = c;
      best_eval = e;
    }
  };

  for (int round = 0; round <= opt_.refine_rounds; ++round) {
    const Candidate round_start = best;
    for (Dim d : order) {
      switch (d) {
        case Dim::kVariant:
          for (sched::Variant v : variants_) {
            Candidate c = best;
            c.variant = v;
            consider(c);
          }
          break;
        case Dim::kPlacement:
          for (const Placement& p : placements_) {
            Candidate c = best;
            c.placement = p;
            consider(c);
          }
          break;
        case Dim::kBlock:
          for (std::size_t blk : blocks_) {
            Candidate c = best;
            c.block = blk;
            consider(c);
          }
          break;
        case Dim::kStreams:
          if (best.variant == sched::Variant::kOffload) {
            for (int s : streams_) {
              Candidate c = best;
              c.streams = s;
              consider(c);
            }
          }
          break;
      }
    }
    if (best == round_start) break;  // converged: a full round changed nothing
  }

  r.winner = best;
  r.winner_eval = best_eval;
  r.cache_hits = cache_hits_ - hits0;
  r.evaluated = cache_.size() - size0;
  r.des_seconds = des_seconds_ - des0;

  if (opt_.metrics != nullptr) publish_tune(r, *opt_.metrics);
  return r;
}

std::string TuneReport::summary() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "sched_tune: n=%zu ranks=%d (%d/node)\n"
      "  sweep order    %s (blame-guided)\n"
      "  space %zu candidates: %zu evaluated, %zu pruned (lower bound), "
      "%zu infeasible, %zu cache hits, %.2f s in the DES\n"
      "  default  %-28s makespan %.6f s  stall %5.1f%%  floor %.6f s\n"
      "  tuned    %-28s makespan %.6f s  stall %5.1f%%  floor %.6f s\n"
      "  predicted speedup x%.3f, stall share cut %.1f%% relative\n",
      workload.n, workload.ranks, workload.ranks_per_node,
      dimension_order.c_str(), space_size, evaluated, pruned, infeasible,
      cache_hits, des_seconds, seed.name().c_str(), seed_eval.makespan,
      100.0 * seed_eval.stall_share, seed_eval.structural_floor,
      winner.name().c_str(), winner_eval.makespan,
      100.0 * winner_eval.stall_share, winner_eval.structural_floor,
      winner_eval.makespan > 0.0 ? seed_eval.makespan / winner_eval.makespan
                                 : 0.0,
      seed_eval.stall_share > 0.0
          ? 100.0 * (1.0 - winner_eval.stall_share / seed_eval.stall_share)
          : 0.0);
  return buf;
}

void publish_tune(const TuneReport& r, telemetry::Registry& reg) {
  reg.gauge("tune.predicted_makespan").set(r.winner_eval.makespan);
  reg.gauge("tune.default_makespan").set(r.seed_eval.makespan);
  reg.gauge("tune.stall_share", "schedule=default").set(r.seed_eval.stall_share);
  reg.gauge("tune.stall_share", "schedule=tuned").set(r.winner_eval.stall_share);
  reg.gauge("tune.des_seconds").set(r.des_seconds);
  reg.gauge("tune.space_size").set(static_cast<double>(r.space_size));
  reg.counter("tune.candidates_evaluated").add(r.evaluated);
  reg.counter("tune.pruned").add(r.pruned);
  reg.counter("tune.cache_hits").add(r.cache_hits);
}

}  // namespace parfw::tune
