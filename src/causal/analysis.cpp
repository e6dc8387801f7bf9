#include "causal/analysis.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>

namespace parfw::causal {

namespace {

bool is(const char* name, const char* want) {
  return std::strcmp(name, want) == 0;
}

bool starts_with(const char* name, const char* prefix) {
  return std::strncmp(name, prefix, std::strlen(prefix)) == 0;
}

/// Preference when two predecessors carry the same timestamp: attribute
/// to real work over pure ordering.
int edge_preference(EdgeType t) {
  switch (t) {
    case EdgeType::kSpan: return 3;
    case EdgeType::kMessage: return 2;
    case EdgeType::kJoin: return 1;
    case EdgeType::kProgram: return 0;
  }
  return 0;
}

}  // namespace

const char* category_name(Category c) {
  switch (c) {
    case Category::kCompute: return "compute";
    case Category::kComm: return "comm";
    case Category::kStall: return "stall";
    case Category::kRetransmit: return "retransmit";
    case Category::kCheckpoint: return "checkpoint";
    case Category::kIo: return "io";
  }
  return "?";
}

Category category_of(const sched::TraceEvent& e) {
  const char* n = e.name;
  // Serve-trace spans (qtrace.hpp): store IO is its own category; the
  // pred-walk and cache probe are compute; routing is comm.
  if (starts_with(n, "serve")) {
    if (is(n, "serveIO")) return Category::kIo;
    if (is(n, "serveRoute")) return Category::kComm;
    return Category::kCompute;  // serveQuery, serveCache, serveWalk, instants
  }
  if (is(n, "Checkpoint")) return Category::kCheckpoint;
  if (is(n, "retry") || is(n, "drop") || is(n, "dup") || is(n, "delay") ||
      is(n, "dup_discard"))
    return Category::kRetransmit;
  if (is(n, "DiagUpdate") || starts_with(n, "PanelUpdate") ||
      starts_with(n, "Lookahead") || is(n, "OuterUpdate") ||
      is(n, "oogHost") || is(n, "comp"))
    return Category::kCompute;
  if (starts_with(n, "DiagBcast") || is(n, "RowPanelBcast") ||
      is(n, "ColPanelBcast") || is(n, "msg") || is(n, "send") ||
      is(n, "recv"))
    return Category::kComm;
  // Device-pipeline waits behave like communication with the device.
  if (is(n, "oogDev") || is(n, "oogWait")) return Category::kComm;
  return Category::kStall;
}

const char* phase_of(const sched::TraceEvent& e) {
  const char* n = e.name;
  if (starts_with(n, "serve")) {
    if (is(n, "serveRoute")) return "route";
    if (is(n, "serveCache")) return "cache";
    if (is(n, "serveIO")) return "io";
    if (is(n, "serveWalk")) return "walk";
    return "query";  // serveQuery parent span, admit/bypass instants
  }
  if (starts_with(n, "Diag")) return "diag";
  if (starts_with(n, "PanelUpdate") || is(n, "RowPanelBcast") ||
      is(n, "ColPanelBcast"))
    return "panel";
  if (starts_with(n, "Lookahead") || is(n, "OuterUpdate") ||
      starts_with(n, "oog"))
    return "update";
  if (is(n, "Checkpoint")) return "checkpoint";
  return "other";
}

bool analyze(const Graph& g, const AnalysisOptions& opt, BlameReport* out,
             std::string* error) {
  *out = BlameReport{};
  out->slack.assign(g.events.size(), 0.0);
  if (g.events.empty()) return true;

  std::vector<int> order;
  if (!topo_order(g, &order)) {
    *error = "happens-before graph is cyclic (malformed or skewed trace)";
    return false;
  }
  out->span = g.t_max - g.t_min;

  // --- critical path: backward binding-predecessor walk ------------------
  // Start from the latest node (prefer an end node so the terminal op is
  // attributed, not just timed).
  int cur = 0;
  for (int v = 1; v < g.num_nodes(); ++v) {
    const double tv = g.node_time[static_cast<std::size_t>(v)];
    const double tc = g.node_time[static_cast<std::size_t>(cur)];
    if (tv > tc || (tv == tc && Graph::is_end(v) && !Graph::is_end(cur)))
      cur = v;
  }

  std::vector<PathSegment> path;
  double cursor = g.t_max;
  while (cursor > g.t_min) {
    const auto& pe = g.preds[static_cast<std::size_t>(cur)];
    if (pe.empty()) {
      // No cause recorded: the remaining head of the window is stall
      // before this node's event (trace startup, untraced dependency).
      PathSegment s;
      s.t_lo = g.t_min;
      s.t_hi = cursor;
      s.event = g.event_of(cur);
      s.rank = s.event >= 0
                   ? g.events[static_cast<std::size_t>(s.event)].rank
                   : -1;
      s.cat = Category::kStall;
      path.push_back(s);
      cursor = g.t_min;
      break;
    }
    int best = pe[0];
    for (std::size_t i = 1; i < pe.size(); ++i) {
      const Edge& a = g.edges[static_cast<std::size_t>(pe[i])];
      const Edge& b = g.edges[static_cast<std::size_t>(best)];
      const double ta = g.node_time[static_cast<std::size_t>(a.from)];
      const double tb = g.node_time[static_cast<std::size_t>(b.from)];
      if (ta > tb ||
          (ta == tb &&
           edge_preference(a.type) > edge_preference(b.type)))
        best = pe[i];
    }
    const Edge& e = g.edges[static_cast<std::size_t>(best)];
    const double t_from = g.node_time[static_cast<std::size_t>(e.from)];
    const double lo = std::max(g.t_min, std::min(cursor, t_from));
    if (cursor > lo) {
      PathSegment s;
      s.t_lo = lo;
      s.t_hi = cursor;
      const int ev = g.event_of(cur);
      s.event = ev;
      s.rank = ev >= 0 ? g.events[static_cast<std::size_t>(ev)].rank : -1;
      if (ev < 0) {
        s.cat = Category::kCheckpoint;  // waiting at a barrier join node
      } else if (!Graph::is_end(cur)) {
        s.cat = Category::kStall;  // waiting for this op to start
      } else {
        const sched::TraceEvent& tev = g.events[static_cast<std::size_t>(ev)];
        switch (e.type) {
          case EdgeType::kMessage:
            s.cat = tev.attempt > 0 ? Category::kRetransmit : Category::kComm;
            break;
          case EdgeType::kJoin: s.cat = Category::kCheckpoint; break;
          case EdgeType::kSpan:
          case EdgeType::kProgram: s.cat = category_of(tev); break;
        }
      }
      path.push_back(s);
    }
    cursor = std::min(cursor, lo);
    cur = e.from;
  }
  std::reverse(path.begin(), path.end());
  out->path = std::move(path);

  // --- aggregate the partition -------------------------------------------
  std::map<int, double> on_path;
  for (const PathSegment& s : out->path) {
    const double d = s.t_hi - s.t_lo;
    out->by_category[static_cast<std::size_t>(s.cat)] += d;
    if (s.rank >= 0)
      out->by_rank[s.rank][static_cast<std::size_t>(s.cat)] += d;
    const char* phase =
        s.event >= 0
            ? phase_of(g.events[static_cast<std::size_t>(s.event)])
            : "checkpoint";
    out->by_phase[phase][static_cast<std::size_t>(s.cat)] += d;
    if (s.event >= 0) on_path[s.event] += d;
  }

  // --- slack via weighted longest paths ----------------------------------
  // Edge weights: an op's own duration on its span edge, the transit time
  // on message edges, 0 on pure ordering edges. Every weight is bounded
  // by the time delta along its (time-monotone) edge, so no path exceeds
  // the span and slack is non-negative.
  auto weight = [&](const Edge& e) -> double {
    switch (e.type) {
      case EdgeType::kSpan:
      case EdgeType::kMessage:
        return std::max(0.0, g.node_time[static_cast<std::size_t>(e.to)] -
                                 g.node_time[static_cast<std::size_t>(e.from)]);
      case EdgeType::kProgram:
      case EdgeType::kJoin: return 0.0;
    }
    return 0.0;
  };
  std::vector<double> up(static_cast<std::size_t>(g.num_nodes()), 0.0);
  std::vector<double> down(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (int v : order)
    for (int ei : g.preds[static_cast<std::size_t>(v)]) {
      const Edge& e = g.edges[static_cast<std::size_t>(ei)];
      up[static_cast<std::size_t>(v)] =
          std::max(up[static_cast<std::size_t>(v)],
                   up[static_cast<std::size_t>(e.from)] + weight(e));
    }
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    for (int ei : g.succs[static_cast<std::size_t>(*it)]) {
      const Edge& e = g.edges[static_cast<std::size_t>(ei)];
      down[static_cast<std::size_t>(*it)] =
          std::max(down[static_cast<std::size_t>(*it)],
                   down[static_cast<std::size_t>(e.to)] + weight(e));
    }
  for (std::size_t ev = 0; ev < g.events.size(); ++ev) {
    const int b = Graph::begin_node(static_cast<int>(ev));
    const int en = Graph::end_node(static_cast<int>(ev));
    const double through = up[static_cast<std::size_t>(b)] +
                           (g.events[ev].t_end - g.events[ev].t_begin) +
                           down[static_cast<std::size_t>(en)];
    out->slack[ev] = std::max(0.0, out->span - through);
  }

  // --- straggler table -----------------------------------------------------
  std::vector<Straggler> top;
  top.reserve(on_path.size());
  for (const auto& [ev, secs] : on_path) {
    Straggler s;
    s.event = ev;
    s.on_path_seconds = secs;
    s.duration = g.events[static_cast<std::size_t>(ev)].t_end -
                 g.events[static_cast<std::size_t>(ev)].t_begin;
    top.push_back(s);
  }
  std::sort(top.begin(), top.end(), [](const Straggler& a, const Straggler& b) {
    return a.on_path_seconds > b.on_path_seconds;
  });
  if (static_cast<int>(top.size()) > opt.top_k)
    top.resize(static_cast<std::size_t>(opt.top_k));
  out->top = std::move(top);
  return true;
}

std::string format_report(const Graph& g, const BlameReport& r) {
  std::ostringstream os;
  os.precision(6);
  os << "critical path: " << r.span << " s over " << r.path.size()
     << " segments (" << g.events.size() << " events)\n\nblame by category:\n";
  for (int c = 0; c < kNumCategories; ++c) {
    const auto cat = static_cast<Category>(c);
    os << "  " << category_name(cat) << ": " << r.category(cat) << " s ("
       << 100.0 * r.share(cat) << "%)\n";
  }
  os << "\nblame by rank (on-path seconds):\n";
  for (const auto& [rank, totals] : r.by_rank) {
    double sum = 0.0;
    for (double v : totals) sum += v;
    os << "  rank " << rank << ": " << sum << " s\n";
  }
  os << "\nblame by FW phase:\n";
  for (const auto& [phase, totals] : r.by_phase) {
    double sum = 0.0;
    for (double v : totals) sum += v;
    os << "  " << phase << ": " << sum << " s\n";
  }
  os << "\ntop blocking ops (on-path seconds / own duration / slack):\n";
  for (const Straggler& s : r.top) {
    const sched::TraceEvent& e = g.events[static_cast<std::size_t>(s.event)];
    os << "  " << e.name << " k=" << e.k << " rank=" << e.rank << ": "
       << s.on_path_seconds << " / " << s.duration << " / "
       << r.slack[static_cast<std::size_t>(s.event)] << "\n";
  }
  return os.str();
}

double structural_floor(const BlameReport& r) {
  return r.category(Category::kStall) + r.category(Category::kRetransmit) +
         r.category(Category::kCheckpoint);
}

double recost(const BlameReport& r, const WhatIf& w) {
  double total = 0.0;
  for (const PathSegment& s : r.path) {
    const double d = s.t_hi - s.t_lo;
    switch (s.cat) {
      case Category::kComm: total += d / w.comm_speedup; break;
      case Category::kCompute: total += d / w.compute_speedup; break;
      case Category::kIo: total += d / w.io_speedup; break;
      case Category::kStall:
      case Category::kRetransmit:
      case Category::kCheckpoint: total += d; break;
    }
  }
  return total;
}

void publish_blame(const BlameReport& r, telemetry::Registry& reg) {
  reg.gauge("cp.length").set(r.span);
  reg.gauge("cp.segments").set(static_cast<double>(r.path.size()));
  for (int c = 0; c < kNumCategories; ++c) {
    const auto cat = static_cast<Category>(c);
    const std::string labels = std::string("category=") + category_name(cat);
    reg.gauge("cp.share", labels).set(r.share(cat));
    reg.gauge("cp.seconds", labels).set(r.category(cat));
  }
}

void write_dot(const Graph& g, const BlameReport& r, std::ostream& os) {
  os << "digraph critical_path {\n  rankdir=LR;\n  node [shape=box];\n";
  int prev = -1;
  int id = 0;
  for (const PathSegment& s : r.path) {
    os << "  n" << id << " [label=\"";
    if (s.event >= 0) {
      const sched::TraceEvent& e = g.events[static_cast<std::size_t>(s.event)];
      os << e.name << "\\nk=" << e.k << " rank=" << e.rank;
    } else {
      os << "(origin)";
    }
    os << "\\n" << category_name(s.cat) << " " << (s.t_hi - s.t_lo)
       << "s\"];\n";
    if (prev >= 0) os << "  n" << prev << " -> n" << id << ";\n";
    prev = id;
    ++id;
  }
  os << "}\n";
}

}  // namespace parfw::causal
