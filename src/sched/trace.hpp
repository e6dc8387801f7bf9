// TraceSink — the shared observability seam of the schedule IR
// (DESIGN.md §2 system #15).
//
// Both interpreters of the schedule IR — the data-carrying distributed
// runtime (dist::parallel_fw over mpisim) and the metadata-costing DES
// (perf::simulate) — report every executed op through this interface, so
// a real run and a simulated run of the same schedule emit directly
// comparable traces. The mpisim runtime and the ooGSrGemm engine report
// through the same seam (message deliveries, offload pipeline stages).
//
// Sinks must be thread-safe: mpisim ranks are OS threads and call
// record() concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace parfw::sched {

/// Causal role of an event — what the trace-analysis layer (src/causal/)
/// may join it against. kSend/kRecv pairs carry a channel coordinate
/// (ctx, src, dst, tag, seq) that identifies the handoff uniquely: mpisim
/// stamps per-flow sequence numbers on every delivery, the DES counts
/// per-(src, dst, tag) sends in execution order, and the offload pipeline
/// reuses the same mechanism for device-chunk completions (ctx encodes
/// the stream). Everything else is kSpan: an executed op, a phase, or a
/// zero-duration marker (fault instants).
enum class EventKind : std::uint8_t {
  kSpan = 0,  ///< executed op / phase / instant marker
  kSend = 1,  ///< handoff produced: rank = producer, peer = consumer
  kRecv = 2,  ///< handoff consumed: rank = consumer, peer = producer
};

/// ctx namespace for device-pipeline channels (ooGSrGemm stream
/// completions), kept disjoint from communicator context ids (small
/// integers) so a device chunk can never join a network message.
constexpr std::uint64_t kDeviceChannelCtx = 1ull << 48;

/// One executed op. `name` must point to a string with static storage
/// duration (op names, phase names) — sinks keep the pointer, not a copy.
struct TraceEvent {
  int rank = 0;               ///< world rank (or DES process id)
  const char* name = "";      ///< op / phase name
  std::uint32_t k = 0;        ///< FW iteration (0 when not applicable)
  double t_begin = 0.0;       ///< seconds since the run's local epoch
  double t_end = 0.0;         ///< >= t_begin; == t_begin for instants
  std::int64_t bytes = 0;     ///< payload bytes (comm ops, transfers)
  double flops = 0.0;         ///< arithmetic work (compute ops)

  // --- causal annotations (defaulted: plain spans need none) -------------
  EventKind ek = EventKind::kSpan;
  std::int32_t peer = -1;     ///< kSend: consumer rank; kRecv: producer rank
  std::int32_t tag = 0;       ///< match tag (sched::tag_of space for FW ops)
  std::uint64_t seq = 0;      ///< per-channel FIFO sequence number
  std::uint64_t ctx = 0;      ///< channel namespace (communicator context /
                              ///< device-stream id); disambiguates tags
  std::uint32_t attempt = 0;  ///< kRecv: >0 if the consumed message was a
                              ///< retransmission (PR 3 reliability layer)
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& e) = 0;
};

/// Seconds since a process-wide monotonic epoch — the shared time base of
/// every real-execution recorder (dist interpreter, mpisim deliveries,
/// offload pipeline), so their events land on one coherent timeline. DES
/// events use virtual clocks instead; write_chrome_trace normalises
/// either to t = 0.
///
/// Monotonicity guarantee: the epoch is a single steady_clock time point
/// captured at static initialisation (before any rank thread starts), and
/// steady_clock is monotonic and consistent across threads, so
/// now_seconds() is non-decreasing along any thread AND two reads ordered
/// by a happens-before edge (mutex, atomic, message delivery) never go
/// backwards relative to each other. Call sites may therefore re-read it
/// per event — the three recorder families do exactly that (the dist
/// interpreter's per-op begin/end pair, the mpisim runtime's delivery and
/// fault instants, the ooGSrGemm hostUpdate spans) and their timestamps
/// interleave correctly on one timeline with no cached clock state.
double now_seconds();

/// Discards everything (the default when no sink is plumbed in).
class NullTraceSink final : public TraceSink {
 public:
  void record(const TraceEvent&) override {}
};

/// Aggregates per-op-name totals — the cheap always-on statistics sink.
class StatsTraceSink final : public TraceSink {
 public:
  struct OpStats {
    std::uint64_t count = 0;
    std::int64_t bytes = 0;
    double flops = 0.0;
    double seconds = 0.0;  ///< Σ (t_end - t_begin)
  };

  void record(const TraceEvent& e) override;

  /// Totals for one op name (zeros when the name never fired).
  OpStats of(const std::string& name) const;
  /// Grand totals over every op name.
  OpStats total() const;
  /// Snapshot of the whole per-name table.
  std::map<std::string, OpStats> table() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, OpStats> stats_;
};

/// Serialise a batch of events as a Chrome trace-event JSON document
/// (load in chrome://tracing or https://ui.perfetto.dev). Events render
/// one row per rank; zero-duration events become instants. Matched
/// kSend/kRecv pairs additionally emit flow events (ph "s"/"f") so
/// Perfetto draws the send→recv arrows, and causal annotations are
/// serialised into args so src/causal/trace_io.hpp can load the document
/// back losslessly. Timestamps are normalised so the earliest event sits
/// at t = 0. Shared by CollectTraceSink::write_chrome and the flight-recorder
/// snapshots (RingTraceSink / incident dumps).
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os);

/// Marker event appended to a capped / windowed capture: an instant named
/// kTruncatedMarker whose `bytes` field carries the number of events that
/// are MISSING from the document (dropped new events for capped sinks,
/// overwritten old events for the ring). The causal loader reads it back
/// like any other instant, so analysis can tell a complete trace from a
/// cut one.
inline constexpr const char* kTruncatedMarker = "truncated";
TraceEvent make_truncated_marker(int rank, double t, std::uint64_t missing);

/// Keeps every raw event — the capture sink for Chrome-trace files, for
/// the causal analysis layer (src/causal/) and for tests that inspect
/// individual events rather than per-name aggregates.
///
/// `max_events` bounds the buffer: once full, NEW events are counted but
/// dropped (the head of the run is usually what a capped capture is for),
/// and write_chrome() appends a kTruncatedMarker instant carrying the
/// dropped count. 0 = unbounded.
class CollectTraceSink final : public TraceSink {
 public:
  explicit CollectTraceSink(std::size_t max_events = 0)
      : max_events_(max_events) {}

  void record(const TraceEvent& e) override;

  /// Snapshot of everything recorded so far.
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  /// Events rejected because the cap was hit.
  std::uint64_t truncated() const;

  /// Write the capture as a Chrome-trace JSON document. Timestamps are
  /// normalised so the earliest recorded event sits at t = 0.
  void write_chrome(std::ostream& os) const;

 private:
  const std::size_t max_events_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::uint64_t truncated_ = 0;
};

/// Flight recorder: a fixed-capacity drop-OLDEST ring buffer. Always-on
/// bounded tracing — memory is capacity_bytes regardless of run length,
/// record() is a spinlock + struct copy into preallocated storage (a few
/// ns; bench_monitor gates the end-to-end overhead under 3%), and the
/// window (the most recent events, in arrival order) can be snapshotted
/// or flushed to Chrome-trace JSON at any moment — which is exactly what
/// an incident dump does. Overwritten events are counted; the monitor
/// layer exports the count as the `trace.ring.dropped` series.
///
/// The spinlock is the right primitive here: the critical section is a
/// ~100-byte copy, writers (rank threads) arrive far apart relative to
/// that, and readers (incident dumps, final flush) are rare.
class RingTraceSink final : public TraceSink {
 public:
  /// Default window: 1 MiB of events (~15k events) — enough to hold the
  /// last few schedule iterations of a large run.
  static constexpr std::size_t kDefaultBytes = std::size_t{1} << 20;

  explicit RingTraceSink(std::size_t capacity_bytes = kDefaultBytes);

  void record(const TraceEvent& e) override;

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const;
  /// Events overwritten by newer ones (total recorded - window size).
  std::uint64_t dropped() const;

  /// The current window, oldest first.
  std::vector<TraceEvent> window() const;

  /// Snapshot the window as a Chrome-trace JSON document. When events
  /// were dropped, a kTruncatedMarker instant at the window's start
  /// carries the count.
  void write_chrome(std::ostream& os) const;

 private:
  void lock() const {
    while (lock_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() const { lock_.clear(std::memory_order_release); }

  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::vector<TraceEvent> buf_;  ///< preallocated ring storage
  std::size_t next_ = 0;         ///< insertion cursor
  std::size_t count_ = 0;        ///< valid entries (<= buf_.size())
  std::uint64_t total_ = 0;      ///< events ever recorded
};

/// Fan-out: forwards every event to each attached sink. Lets one run feed
/// the flight recorder AND a full Chrome capture (or a RunMonitor)
/// without the recorders knowing about each other.
class TeeTraceSink final : public TraceSink {
 public:
  TeeTraceSink() = default;
  explicit TeeTraceSink(std::vector<TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}

  /// Attach another sink (not thread-safe; do this before the run).
  void add(TraceSink* s) {
    if (s != nullptr) sinks_.push_back(s);
  }

  void record(const TraceEvent& e) override {
    for (TraceSink* s : sinks_) s->record(e);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace parfw::sched
