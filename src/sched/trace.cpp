#include "sched/trace.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <tuple>

#include <chrono>

namespace parfw::sched {

namespace {
// One process-wide epoch, captured during static initialisation — BEFORE
// any rank thread exists — so every thread measures against the same
// origin. (The previous function-local static was initialised by whichever
// thread called first; init is thread-safe, but an epoch captured
// mid-run would sit later than events other threads had already
// timestamped relative to their own expectations.)
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();
}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_epoch)
      .count();
}

void StatsTraceSink::record(const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  OpStats& s = stats_[e.name];
  ++s.count;
  s.bytes += e.bytes;
  s.flops += e.flops;
  s.seconds += e.t_end - e.t_begin;
}

StatsTraceSink::OpStats StatsTraceSink::of(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(name);
  return it == stats_.end() ? OpStats{} : it->second;
}

StatsTraceSink::OpStats StatsTraceSink::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  OpStats out;
  for (const auto& [name, s] : stats_) {
    out.count += s.count;
    out.bytes += s.bytes;
    out.flops += s.flops;
    out.seconds += s.seconds;
  }
  return out;
}

std::map<std::string, StatsTraceSink::OpStats> StatsTraceSink::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

TraceEvent make_truncated_marker(int rank, double t, std::uint64_t missing) {
  TraceEvent m;
  m.rank = rank;
  m.name = kTruncatedMarker;
  m.t_begin = t;
  m.t_end = t;
  m.bytes = static_cast<std::int64_t>(missing);
  return m;
}

namespace {
// Join key of a kSend/kRecv pair: the channel coordinate. The send's
// (rank, peer) is the recv's (peer, rank).
struct FlowKey {
  std::uint64_t ctx;
  int src;
  int dst;
  std::int32_t tag;
  std::uint64_t seq;
  bool operator<(const FlowKey& o) const {
    return std::tie(ctx, src, dst, tag, seq) <
           std::tie(o.ctx, o.src, o.dst, o.tag, o.seq);
  }
};

FlowKey flow_key_of(const TraceEvent& e) {
  if (e.ek == EventKind::kSend)
    return FlowKey{e.ctx, e.rank, static_cast<int>(e.peer), e.tag, e.seq};
  return FlowKey{e.ctx, static_cast<int>(e.peer), e.rank, e.tag, e.seq};
}
}  // namespace

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os) {
  double epoch = std::numeric_limits<double>::max();
  for (const TraceEvent& e : events) epoch = std::min(epoch, e.t_begin);
  if (events.empty()) epoch = 0.0;

  // Pair sends with recvs so each matched handoff gets one flow id. A
  // send whose recv was never recorded (dropped message, trace cut short)
  // simply gets no arrow.
  std::map<FlowKey, std::size_t> send_of;
  std::vector<long long> flow_id(events.size(), -1);
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].ek == EventKind::kSend) send_of[flow_key_of(events[i])] = i;
  long long next_id = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].ek != EventKind::kRecv) continue;
    auto it = send_of.find(flow_key_of(events[i]));
    if (it == send_of.end()) continue;
    flow_id[it->second] = next_id;
    flow_id[i] = next_id;
    ++next_id;
  }

  // Default stream precision (6 significant digits) truncates microsecond
  // timestamps once a trace is ~1 s long; the causal loader needs the
  // round trip to stay faithful.
  const auto old_precision = os.precision(15);

  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (!first) os << ",";
    first = false;
    const double us = (e.t_begin - epoch) * 1e6;
    const double dur = (e.t_end - e.t_begin) * 1e6;
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"sched\",";
    if (dur > 0.0)
      os << "\"ph\":\"X\",\"dur\":" << dur << ",";
    else
      os << "\"ph\":\"i\",\"s\":\"t\",";
    os << "\"ts\":" << us << ",\"pid\":0,\"tid\":" << e.rank
       << ",\"args\":{\"k\":" << e.k << ",\"bytes\":" << e.bytes
       << ",\"flops\":" << e.flops;
    if (e.ek != EventKind::kSpan) {
      os << ",\"ek\":" << static_cast<int>(e.ek) << ",\"peer\":" << e.peer
         << ",\"tag\":" << e.tag << ",\"seq\":" << e.seq
         << ",\"ctx\":" << e.ctx;
      if (e.attempt != 0) os << ",\"att\":" << e.attempt;
    } else if (e.tag != 0) {
      os << ",\"tag\":" << e.tag;
    }
    os << "}}";
    if (flow_id[i] >= 0) {
      // Flow arrows: "s" anchors inside the send slice, "f" (binding
      // point "e": enclosing slice end) inside the recv slice. Same
      // cat/name/id on both halves joins them.
      if (e.ek == EventKind::kSend)
        os << ",{\"name\":\"msgflow\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":"
           << flow_id[i] << ",\"ts\":" << us << ",\"pid\":0,\"tid\":" << e.rank
           << "}";
      else
        os << ",{\"name\":\"msgflow\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":"
           << "\"e\",\"id\":" << flow_id[i] << ",\"ts\":"
           << (e.t_end - epoch) * 1e6 << ",\"pid\":0,\"tid\":" << e.rank
           << "}";
    }
  }
  os << "]}\n";
  os.precision(old_precision);
}

void CollectTraceSink::record(const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (max_events_ != 0 && events_.size() >= max_events_) {
    ++truncated_;
    return;
  }
  events_.push_back(e);
}

std::vector<TraceEvent> CollectTraceSink::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t CollectTraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t CollectTraceSink::truncated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_;
}

void CollectTraceSink::write_chrome(std::ostream& os) const {
  std::vector<TraceEvent> events;
  std::uint64_t truncated = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
    truncated = truncated_;
  }
  if (truncated > 0) {
    // The TAIL is missing (drop-new cap): the marker sits at the last
    // recorded timestamp.
    const double t = events.empty() ? 0.0 : events.back().t_end;
    events.push_back(make_truncated_marker(0, t, truncated));
  }
  write_chrome_trace(events, os);
}

RingTraceSink::RingTraceSink(std::size_t capacity_bytes)
    : buf_(std::max<std::size_t>(1, capacity_bytes / sizeof(TraceEvent))) {}

void RingTraceSink::record(const TraceEvent& e) {
  lock();
  buf_[next_] = e;
  ++next_;
  if (next_ == buf_.size()) next_ = 0;
  if (count_ < buf_.size()) ++count_;
  ++total_;
  unlock();
}

std::size_t RingTraceSink::size() const {
  lock();
  const std::size_t out = count_;
  unlock();
  return out;
}

std::uint64_t RingTraceSink::dropped() const {
  lock();
  const std::uint64_t out = total_ - count_;
  unlock();
  return out;
}

std::vector<TraceEvent> RingTraceSink::window() const {
  lock();
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest entry sits at the cursor once the ring has wrapped.
  const std::size_t start = count_ < buf_.size() ? 0 : next_;
  for (std::size_t i = 0; i < count_; ++i)
    out.push_back(buf_[(start + i) % buf_.size()]);
  unlock();
  return out;
}

void RingTraceSink::write_chrome(std::ostream& os) const {
  std::vector<TraceEvent> events = window();
  const std::uint64_t missing = dropped();
  if (missing > 0) {
    // The HEAD is missing (drop-oldest ring): the marker sits at the
    // window's first timestamp.
    const double t = events.empty() ? 0.0 : events.front().t_begin;
    events.insert(events.begin(), make_truncated_marker(0, t, missing));
  }
  write_chrome_trace(events, os);
}

}  // namespace parfw::sched
