// Schedule autotuner — closing the causal-feedback loop (DESIGN.md §4.10).
//
// BENCH_cp.json's headline finding is that ~80% of the distributed FW
// critical path is STALL: the schedule, not the kernels, is the
// bottleneck. This module searches the schedule-configuration space —
// variant × rank placement × block size × offload buffer depth — the way
// the paper itself chooses variant/placement/block size: by MODEL, not by
// exhaustive real runs. Each candidate is evaluated cheaply in the
// discrete-event simulator (perf::build_fw_program + perf::simulate), its
// critical path is blame-attributed through src/causal/, and the search
// is seeded and pruned by that attribution:
//
//   * the seed candidate's blame split decides which dimension is swept
//     first (stall-dominant → reshape the schedule: variant, then
//     placement; comm-dominant → placement, then block size;
//     compute-dominant → block size first);
//   * candidates whose closed-form lower bound (compute floor, W_min NIC
//     floor — cost_model.hpp) already exceeds the best objective are
//     discarded without running the DES;
//   * every DES evaluation is memoized in a cache keyed on the candidate's
//     full schedule configuration (sched::hash_of(ScheduleParams) +
//     placement + buffer depth), so greedy re-visits and repeated runs
//     never rebuild a program or re-cost its perf::Op metadata.
//
// The objective is makespan + stall_weight · critical-path stall seconds:
// among near-equally-fast schedules, prefer the one that is fast because
// it OVERLAPS, not because it gambles — stall on the critical path is
// time that buys nothing and that any model error, OS noise or network
// jitter inflates first (the straggler ablation measures exactly that).
// stall_weight = 0 recovers pure-makespan tuning.
//
// parfw::solve consumes this through resolve_auto() when
// DistStrategy::variant == sched::Variant::kAuto; tools/sched_tune is the
// standalone CLI; manifest.hpp persists winners (PARFW_TUNE_CACHE).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/grid.hpp"
#include "perf/machine.hpp"
#include "sched/variant.hpp"
#include "telemetry/metrics.hpp"

namespace parfw::tune {

/// Rank placement: process-grid shape plus how ranks map onto nodes.
/// Naive = contiguous row-major packing; tiled = the paper's Figure 1
/// +Reordering placement (node grid kr × kc of qr × qc intranode tiles).
struct Placement {
  bool tiled = false;
  int pr = 2, pc = 2;  ///< process grid; tiled: pr = kr·qr, pc = kc·qc
  int kr = 1, kc = 1;  ///< node grid (meaningful iff tiled)

  int qr() const { return tiled ? pr / kr : 1; }
  int qc() const { return tiled ? pc / kc : 1; }
  int ranks() const { return pr * pc; }

  dist::GridSpec grid() const;
  /// Node map under contiguous rank→node packing (how jsrun fills nodes;
  /// both GridSpec placements assume it).
  std::vector<int> node_of(int ranks_per_node) const;
  std::string name() const;  ///< "6x8" (naive) / "2x2/3x4" (tiled)

  friend bool operator==(const Placement& a, const Placement& b) {
    return a.tiled == b.tiled && a.pr == b.pr && a.pc == b.pc &&
           (!a.tiled || (a.kr == b.kr && a.kc == b.kc));
  }
};

/// One point of the search space. `streams` is the ooGSrGemm X-buffer
/// depth (§4.5); it only shapes the kOffload schedule cost, so candidates
/// for the other variants are canonicalised to streams = 3 before hashing
/// (one cache entry per distinct schedule, not per don't-care knob).
struct Candidate {
  sched::Variant variant = sched::Variant::kAsync;
  Placement placement{};
  std::size_t block = 768;
  int streams = 3;

  Candidate canonical() const {
    Candidate c = *this;
    if (c.variant != sched::Variant::kOffload) c.streams = 3;
    return c;
  }
  std::string name() const;  ///< "async 6x8 b=768" / "offload 2x2/3x4 b=768 s=2"

  friend bool operator==(const Candidate& a, const Candidate& b) {
    return a.variant == b.variant && a.placement == b.placement &&
           a.block == b.block &&
           (a.variant != sched::Variant::kOffload || a.streams == b.streams);
  }
};

/// What the schedule is tuned FOR: the problem and the cluster slice.
struct Workload {
  std::size_t n = 0;        ///< vertices
  int ranks = 0;            ///< total processes P
  int ranks_per_node = 1;   ///< NIC-domain size (paper §3.4.1)
  std::size_t word_bytes = 4;

  int nodes() const { return ranks / ranks_per_node; }
  friend bool operator==(const Workload& a, const Workload& b) {
    return a.n == b.n && a.ranks == b.ranks &&
           a.ranks_per_node == b.ranks_per_node &&
           a.word_bytes == b.word_bytes;
  }
};

/// One memoized DES evaluation of a candidate. All fields are
/// deterministic functions of (machine, workload, candidate) — a cache
/// hit returns them bit-identically.
struct Eval {
  double makespan = 0.0;        ///< DES-predicted run time, s
  double stall_seconds = 0.0;   ///< critical-path stall (causal blame)
  double stall_share = 0.0;     ///< stall_seconds / makespan
  double comm_share = 0.0;
  double compute_share = 0.0;
  /// recost() limit under infinite comm+compute speedups: the part of the
  /// path only a RESHAPED schedule can remove (causal::structural_floor).
  double structural_floor = 0.0;
  double objective = 0.0;       ///< makespan + stall_weight · stall_seconds
  std::int64_t wire_bytes = 0;  ///< Σ send payloads — exact vs real mpisim
  std::int64_t internode_bytes = 0;
};

struct TuneOptions {
  perf::MachineConfig machine = perf::MachineConfig::summit();
  /// Weight of critical-path stall seconds in the objective (see header
  /// comment). 0 = pure makespan.
  double stall_weight = 1.0;
  /// Candidate-space overrides; empty = derive defaults (all concrete
  /// variants; every grid factorisation, naive and tiled; divisors of n
  /// geometrically thinned with n/b capped at kMaxBlocksPerDim; depths
  /// 1..3).
  std::vector<sched::Variant> variants;
  std::vector<Placement> placements;
  std::vector<std::size_t> blocks;
  std::vector<int> streams;
  /// Greedy refinement rounds after the first blame-ordered pass. The
  /// loop also stops as soon as a full round improves nothing.
  int refine_rounds = 2;
  /// When set, run() publishes the tune.* series here.
  telemetry::Registry* metrics = nullptr;
};

/// Search-space ceiling on blocks-per-dimension (n/b): DES cost grows
/// with nb·P, so default block derivation refuses nb beyond this.
inline constexpr std::size_t kMaxBlocksPerDim = 384;

struct TuneReport {
  Workload workload{};
  Candidate seed{}, winner{};
  Eval seed_eval{}, winner_eval{};
  std::string dimension_order;  ///< blame-chosen sweep order, e.g.
                                ///< "variant,placement,block,streams"
  std::size_t space_size = 0;   ///< candidates the full product contains
  std::size_t evaluated = 0;    ///< DES evaluations actually run
  std::size_t pruned = 0;       ///< skipped on the closed-form lower bound
  std::size_t infeasible = 0;   ///< skipped on feasibility
  std::size_t cache_hits = 0;   ///< evaluations answered from the cache
  double des_seconds = 0.0;     ///< wall time spent building + simulating

  std::string summary() const;  ///< human-readable report
};

class Tuner {
 public:
  Tuner(const Workload& w, const TuneOptions& opt = {});

  const Workload& workload() const { return workload_; }
  const TuneOptions& options() const { return opt_; }

  /// The candidate space actually searched (after defaults/overrides).
  const std::vector<sched::Variant>& variants() const { return variants_; }
  const std::vector<Placement>& placements() const { return placements_; }
  const std::vector<std::size_t>& blocks() const { return blocks_; }
  const std::vector<int>& streams() const { return streams_; }

  /// The schedule the untuned solver would run: the repo-default variant
  /// (async), balanced naive grid, block closest to 768 among blocks().
  Candidate default_candidate() const;

  /// True iff the candidate can be scheduled for this workload (block
  /// divides n, at least one block per process row/column, grid matches
  /// the workload's rank count and node shape). `why` gets a diagnostic.
  bool feasible(const Candidate& c, std::string* why = nullptr) const;

  /// Closed-form lower bound on any feasible candidate's DES makespan:
  /// max(compute floor perf::model_compute_time, W_min/nic_bw). Candidates
  /// with lower_bound > best objective are pruned without a DES run
  /// (objective ≥ makespan ≥ bound for stall_weight ≥ 0). It prices no
  /// op: being independent of the candidate's shape is what keeps it
  /// sound for every placement.
  double lower_bound(const Candidate& c) const;

  /// Memoized DES evaluation (builds the program, simulates, attributes
  /// blame). A repeat call — same canonical candidate — is a cache hit:
  /// the program is NOT rebuilt and the returned Eval is bit-identical.
  const Eval& evaluate(const Candidate& c);

  /// Run the search from the default seed / an explicit seed.
  TuneReport run();
  TuneReport run(const Candidate& seed);

  std::size_t cache_size() const { return cache_.size(); }
  std::size_t cache_hits() const { return cache_hits_; }

 private:
  struct CacheEntry {
    Candidate candidate;  ///< collision guard: key must match exactly
    Eval eval;
  };
  std::uint64_t key_of(const Candidate& c) const;

  Workload workload_;
  TuneOptions opt_;
  std::vector<sched::Variant> variants_;
  std::vector<Placement> placements_;
  std::vector<std::size_t> blocks_;
  std::vector<int> streams_;
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  std::size_t cache_hits_ = 0;
  double des_seconds_ = 0.0;
};

/// Default candidate-space derivations (exposed for tests and the CLI).
std::vector<Placement> enumerate_placements(const Workload& w);
std::vector<std::size_t> derive_blocks(const Workload& w);

/// Publish the tune.* series: tune.predicted_makespan / tune.default_-
/// makespan / tune.stall_share{schedule=default|tuned} gauges plus the
/// tune.candidates_evaluated / tune.pruned / tune.cache_hits counters and
/// the tune.des_seconds gauge.
void publish_tune(const TuneReport& r, telemetry::Registry& reg);

}  // namespace parfw::tune
