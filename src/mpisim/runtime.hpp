// In-process message-passing runtime — the MPI substitute (DESIGN.md §1).
//
// Ranks are OS threads sharing one World object. The World owns every
// rank's mailbox (matched by communicator context, global source rank and
// tag, FIFO within a key), a node model mapping ranks to "nodes" for NIC
// traffic accounting, and the barrier/context-id machinery that backs
// communicators.
//
// Semantics mirror the MPI subset the paper's algorithms use:
//   * eager buffered send (send returns once the payload is copied),
//   * blocking receive with (source, tag) matching,
//   * nonblocking isend/irecv + wait,
//   * communicator split (process rows/columns of the 2-D grid),
//   * tree broadcast (library bcast) and ring broadcast (the paper's
//     custom PanelBcast collective, §3.3) — see collectives.hpp.
//
// Resilience (DESIGN.md "Resilience"): when RuntimeOptions carries a
// FaultPlan, deliveries grow a reliability envelope — per-flow sequence
// numbers, receiver-side in-order delivery, duplicate discard, and a
// simulated retransmission timer (bounded exponential backoff from
// send_timeout, per-message budget max_retries) that re-drives dropped
// messages. Rank crashes propagate through World::abort: every blocked
// peer is woken and throws RankFailure instead of deadlocking.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpisim/fault.hpp"
#include "mpisim/message.hpp"
#include "sched/trace.hpp"
#include "telemetry/metrics.hpp"

namespace parfw::mpi {

class Comm;

/// Maps ranks to nodes for traffic accounting (paper §3.4.1: all ranks on
/// a node share one NIC). Default: every rank is its own node.
struct NodeModel {
  /// node_of[r] = node id of global rank r; empty = identity.
  std::vector<int> node_of;

  int node(rank_t r) const {
    return node_of.empty() ? r : node_of[static_cast<std::size_t>(r)];
  }
  /// Contiguous packing: ranks [0..Q) on node 0, [Q..2Q) on node 1, ...
  static NodeModel contiguous(int world_size, int ranks_per_node);
};

/// Per-run communication statistics. messages / bytes_* count LOGICAL
/// sends (one per send call, at first delivery attempt) so they stay
/// exactly DES-comparable even under injected faults; the resilience
/// counters below account the fault/recovery machinery separately.
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_internode = 0;  ///< crossing a node boundary
  /// max over nodes of (bytes in + bytes out through the NIC)
  std::uint64_t max_nic_bytes = 0;
  std::vector<std::uint64_t> nic_bytes;  ///< per node

  // --- resilience counters (zero unless a FaultPlan / checkpointing ran) ---
  std::uint64_t drops_injected = 0;   ///< delivery attempts lost
  std::uint64_t dups_injected = 0;    ///< extra copies delivered
  std::uint64_t delays_injected = 0;  ///< deliveries held back
  std::uint64_t retries = 0;          ///< retransmission attempts driven
  std::uint64_t dup_discarded = 0;    ///< stale duplicates dropped at recv
  std::uint64_t retry_bytes = 0;      ///< payload bytes retransmitted
  std::uint64_t checkpoints = 0;      ///< rank snapshots taken
  std::uint64_t checkpoint_bytes = 0; ///< bytes written to the store
  double checkpoint_seconds = 0.0;    ///< wall time spent snapshotting

  /// Accumulate another run's statistics (the supervision loop merges
  /// every attempt, crashed ones included, into one whole-run view).
  void merge(const TrafficStats& o);
};

struct RuntimeOptions {
  NodeModel node_model{};
  /// When set, every message delivery is recorded as an instant event
  /// ("msg", rank = source, bytes = payload size, EventKind::kSend with
  /// the flow coordinate ctx/peer/tag/seq) and every matched receive as a
  /// "recv" span (EventKind::kRecv, wait-entry to match, carrying the
  /// matched message's seq and retransmission attempt) on the shared
  /// sched::now_seconds() timeline; injected faults and retransmissions
  /// are recorded as "drop"/"dup"/"delay"/"retry" instants. The kSend /
  /// kRecv pairs are what the causal analysis layer (src/causal/) joins
  /// into happens-before message edges. Sinks must be thread-safe.
  sched::TraceSink* trace = nullptr;
  /// Seeded deterministic fault injection (off by default).
  FaultPlan faults{};
  /// Reliability envelope: per-message retransmission budget and initial
  /// timeout (doubles per retry, bounded). Only consulted when
  /// faults.message_faults() — fault-free runs keep the fast wait path.
  int max_retries = 6;
  double send_timeout = 0.01;  ///< seconds
  /// When set, Runtime::run copies the world's final TrafficStats here
  /// even when a rank failure makes it throw — a crashed attempt's
  /// retries/checkpoint counters stay observable to the supervisor.
  TrafficStats* stats_out = nullptr;
  /// When set, the world records live series into this registry:
  /// mpi.sends / mpi.send_bytes counters, mpi.msg_bytes and
  /// mpi.send_seconds / mpi.recv_wait_seconds latency histograms, and
  /// mpi.retry_msg_bytes for the reliability envelope (its count is the
  /// retry count; payload distribution per retransmission). The
  /// collectives add per-collective byte histograms (mpi.coll_bytes,
  /// labelled coll=tree|ring). TrafficStats stays the cheap back-compat
  /// aggregate; telemetry::publish_traffic_stats publishes it into a
  /// registry at end of run (under a distinct label set — the adapter
  /// gauges reuse the mpi.retries / mpi.retry_bytes names).
  telemetry::Registry* metrics = nullptr;
};

/// Shared state of one run. Created by Runtime::run; ranks hold a pointer.
class World {
 public:
  World(int size, NodeModel node_model, sched::TraceSink* trace = nullptr);
  World(int size, const RuntimeOptions& opt)
      : World(size, opt.node_model, opt.trace) {
    faults_ = opt.faults;
    max_retries_ = opt.max_retries;
    send_timeout_ = opt.send_timeout;
    set_metrics(opt.metrics);
  }

  int size() const { return size_; }
  const NodeModel& node_model() const { return node_model_; }
  /// Trace sink of this run (nullptr when tracing is off).
  sched::TraceSink* trace() const { return trace_; }
  /// Fault plan of this run (default-constructed = no faults).
  const FaultPlan& faults() const { return faults_; }

  /// Deliver a message (eager copy already made by the caller).
  void deliver(const MatchKey& key, rank_t dst, Message msg);
  /// Block until a message matching `key` is available at `dst`; pop it.
  /// Under an active fault plan this runs the reliability envelope:
  /// in-seq delivery, duplicate discard, delay honouring, and timeout
  /// re-drive of dropped messages. Throws RankFailure if the world is
  /// aborted while waiting or the retry budget is exhausted.
  Message await(const MatchKey& key, rank_t dst);

  /// World-wide barrier over all ranks (sense-reversing, generation count).
  void barrier();
  /// Barrier over an arbitrary subgroup, identified by the group's context
  /// id (each communicator has one) and size.
  void group_barrier(std::uint64_t context, int group_size);

  /// Allocate a fresh communicator context id (collective-safe: ids are
  /// global and allocation order is synchronised by the callers' barrier).
  std::uint64_t next_context() { return next_context_.fetch_add(1); }

  /// Kill the world: wake every rank blocked in await/group_barrier; they
  /// throw RankFailure. First abort wins. Runtime::run calls this when any
  /// rank's body throws, so one crash can never deadlock the others.
  void abort(int failed_rank, const std::string& reason);
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Checkpoint accounting (surfaced through traffic()).
  void add_checkpoint(std::uint64_t bytes, double seconds);

  TrafficStats traffic() const;

  /// Metrics registry of this run (nullptr when metrics are off).
  telemetry::Registry* metrics() const { return metrics_; }
  /// Attach a registry; resolves the hot-path handles once. Call before
  /// rank threads start (Runtime::run does).
  void set_metrics(telemetry::Registry* reg);

 private:
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<MatchKey, std::deque<Message>, MatchKeyHash> queues;
    // Reliability envelope state (touched only under an active fault
    // plan). Dropped messages park in `lost` until the receiver's
    // retransmission timer re-drives them into `queues`.
    std::unordered_map<MatchKey, std::uint64_t, MatchKeyHash> next_seq;
    std::unordered_map<MatchKey, std::uint64_t, MatchKeyHash> expected;
    std::unordered_map<MatchKey, std::deque<Message>, MatchKeyHash> lost;
  };

  [[noreturn]] void throw_aborted() const;
  void count_fault(std::uint64_t TrafficStats::* counter, const char* name,
                   rank_t rank, std::int64_t bytes);
  /// Record the kRecv trace event for a matched message (no-op without a
  /// sink). t_wait0 is the receiver's wait-entry timestamp.
  void record_recv(const MatchKey& key, rank_t dst, const Message& msg,
                   double t_wait0);

  int size_;
  NodeModel node_model_;
  sched::TraceSink* trace_ = nullptr;
  FaultPlan faults_{};
  int max_retries_ = 6;
  double send_timeout_ = 0.01;
  telemetry::Registry* metrics_ = nullptr;
  // Hot-path metric handles, resolved once in set_metrics (registry
  // handles are stable, so deliveries/awaits touch only atomics).
  struct MetricHandles {
    telemetry::Counter* sends = nullptr;
    telemetry::Counter* send_bytes = nullptr;
    telemetry::Histogram* msg_bytes = nullptr;
    telemetry::Histogram* send_seconds = nullptr;
    telemetry::Histogram* recv_wait_seconds = nullptr;
    telemetry::Histogram* retry_msg_bytes = nullptr;
  };
  MetricHandles mh_{};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::atomic<bool> aborted_{false};
  std::atomic<bool> abort_claimed_{false};
  int aborted_rank_ = -1;
  std::string abort_reason_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;

  struct GroupBarrier {
    int count = 0;
    std::uint64_t gen = 0;
  };
  std::mutex group_mu_;
  std::condition_variable group_cv_;
  std::unordered_map<std::uint64_t, GroupBarrier> group_barriers_;

  std::atomic<std::uint64_t> next_context_{1};

  mutable std::mutex traffic_mu_;
  TrafficStats traffic_{};
};

/// Entry point: spawn `world_size` rank threads, run `fn(world_comm)` on
/// each, join, and return the aggregated traffic statistics. Any exception
/// thrown by a rank aborts the world (peers blocked in receives/barriers
/// wake and throw RankFailure) and is rethrown (first one wins) after all
/// threads joined.
class Runtime {
 public:
  static TrafficStats run(int world_size,
                          const std::function<void(Comm&)>& fn,
                          const RuntimeOptions& opt = {});
};

}  // namespace parfw::mpi
