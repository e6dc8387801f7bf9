#include "monitor/incident.hpp"

#include <fstream>
#include <sstream>

#include "causal/graph.hpp"
#include "telemetry/export.hpp"

namespace parfw::monitor {

using telemetry::json_escape;

IncidentLog::IncidentLog(IncidentConfig cfg, sched::RingTraceSink* ring)
    : cfg_(std::move(cfg)), ring_(ring) {}

std::string IncidentLog::report_path() const {
  return cfg_.path_prefix.empty() ? std::string{}
                                  : cfg_.path_prefix + ".incidents.jsonl";
}

bool IncidentLog::fire(const std::string& kind, double t, int hint_rank,
                       const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (incidents_.size() >= cfg_.max_incidents) return false;
  if (fired_once_ && t - last_fire_t_ < cfg_.cooldown_s) return false;
  fired_once_ = true;
  last_fire_t_ = t;

  Incident inc;
  inc.kind = kind;
  inc.t = t;
  inc.hint_rank = hint_rank;
  inc.detail = detail;
  const std::size_t seq = incidents_.size();

  std::vector<sched::TraceEvent> window;
  if (ring_ != nullptr) {
    window = ring_->window();
    inc.window_events = window.size();
    inc.ring_dropped = ring_->dropped();
  }

  // Causal blame over the window: the blamed rank is the one holding the
  // most critical-path time in the window — the straggler test's claim
  // that the analysis names the injected slow rank rides on this.
  if (!window.empty()) {
    causal::BuildStats bstats;
    const causal::Graph g = causal::build_graph(window, &bstats);
    causal::BlameReport report;
    std::string err;
    if (causal::analyze(g, {}, &report, &err)) {
      inc.window_span = report.span;
      inc.blame = report.by_category;
      double best = -1.0;
      for (const auto& [rank, totals] : report.by_rank) {
        double sum = 0.0;
        for (double v : totals) sum += v;
        inc.rank_seconds[rank] = sum;
        if (sum > best) {
          best = sum;
          inc.blamed_rank = rank;
        }
      }
    }
  }

  if (!cfg_.path_prefix.empty() && ring_ != nullptr) {
    std::ostringstream name;
    name << cfg_.path_prefix << ".incident-" << seq << ".trace.json";
    inc.trace_path = name.str();
    std::ofstream os(inc.trace_path);
    if (os.good()) {
      std::vector<sched::TraceEvent> dump = window;
      if (inc.ring_dropped > 0) {
        const double t0 = dump.empty() ? 0.0 : dump.front().t_begin;
        dump.insert(dump.begin(),
                    sched::make_truncated_marker(0, t0, inc.ring_dropped));
      }
      sched::write_chrome_trace(dump, os);
    } else {
      inc.trace_path.clear();
    }
  }

  if (!cfg_.path_prefix.empty()) {
    std::ofstream os(report_path(), std::ios::app);
    if (os.good()) {
      os.precision(15);
      os << "{\"kind\":\"" << json_escape(inc.kind) << "\",\"seq\":" << seq
         << ",\"t\":" << inc.t << ",\"hint_rank\":" << inc.hint_rank
         << ",\"blamed_rank\":" << inc.blamed_rank << ",\"detail\":\""
         << json_escape(inc.detail) << "\",\"trace\":\""
         << json_escape(inc.trace_path) << "\",\"window_span\":"
         << inc.window_span << ",\"window_events\":" << inc.window_events
         << ",\"ring_dropped\":" << inc.ring_dropped << ",\"blame\":{";
      for (int c = 0; c < causal::kNumCategories; ++c) {
        if (c != 0) os << ",";
        os << "\"" << causal::category_name(static_cast<causal::Category>(c))
           << "\":" << inc.blame[static_cast<std::size_t>(c)];
      }
      os << "},\"rank_seconds\":{";
      bool first = true;
      for (const auto& [rank, sec] : inc.rank_seconds) {
        if (!first) os << ",";
        first = false;
        os << "\"" << rank << "\":" << sec;
      }
      os << "}}\n";
    }
  }

  if (cfg_.log_out != nullptr)
    std::fprintf(cfg_.log_out, "%s\n", format_incident(inc).c_str());

  incidents_.push_back(std::move(inc));
  return true;
}

std::vector<Incident> IncidentLog::incidents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incidents_;
}

std::size_t IncidentLog::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incidents_.size();
}

std::string format_incident(const Incident& inc) {
  std::ostringstream os;
  os << "[monitor] INCIDENT " << inc.kind << " at t=" << inc.t << "s";
  if (inc.hint_rank >= 0) os << " (trigger rank " << inc.hint_rank << ")";
  if (inc.blamed_rank >= 0) os << ", causal blame -> rank " << inc.blamed_rank;
  if (!inc.detail.empty()) os << ": " << inc.detail;
  if (!inc.trace_path.empty())
    os << " [window: " << inc.window_events << " events, "
       << inc.ring_dropped << " dropped -> " << inc.trace_path << "]";
  return os.str();
}

}  // namespace parfw::monitor
