#include "serve/slo.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace parfw::serve {

SloMonitor::SloMonitor(SloConfig cfg) : cfg_(cfg) {
  PARFW_CHECK_MSG(cfg_.window > 0, "SLO window must be positive");
  PARFW_CHECK_MSG(cfg_.budget > 0.0, "SLO budget must be positive");
}

void SloMonitor::record(const QueryStats& q) {
  ++total_;
  const bool violated =
      cfg_.p99_target_s > 0.0 && q.total > cfg_.p99_target_s;
  if (violated) ++violations_;

  if (ring_.size() < cfg_.window) {
    ring_.push_back(q.total);
    ring_violated_.push_back(violated);
    if (violated) ++window_violations_;
  } else {
    if (ring_violated_[ring_next_]) --window_violations_;
    ring_[ring_next_] = q.total;
    ring_violated_[ring_next_] = violated;
    if (violated) ++window_violations_;
    ring_next_ = (ring_next_ + 1) % cfg_.window;
  }

  const double threshold = cfg_.slow_threshold();
  if (threshold > 0.0 && q.total > threshold) {
    slow_log_.push_back(q);
    while (slow_log_.size() > cfg_.slow_log_capacity) slow_log_.pop_front();
  }

  // Burn alert, edge-triggered on the cheap incremental burn (the full
  // report() sorts the window — not per query).
  if (cfg_.on_burn_alert && cfg_.p99_target_s > 0.0 && !ring_.empty()) {
    const double burn = static_cast<double>(window_violations_) /
                        static_cast<double>(ring_.size()) / cfg_.budget;
    if (burn >= cfg_.burn_alert_threshold) {
      if (!burning_) {
        burning_ = true;
        cfg_.on_burn_alert(report());
      }
    } else {
      burning_ = false;
    }
  }
}

SloReport SloMonitor::report() const {
  SloReport r;
  r.total = total_;
  r.window_count = ring_.size();
  r.p50_target = cfg_.p50_target_s;
  r.p99_target = cfg_.p99_target_s;
  r.violations = violations_;
  if (ring_.empty()) return r;

  std::vector<double> sorted(ring_);
  std::sort(sorted.begin(), sorted.end());
  auto quant = [&](double p) {
    auto i = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    if (i > 0) --i;
    return sorted[std::min(i, sorted.size() - 1)];
  };
  r.p50 = quant(0.50);
  r.p99 = quant(0.99);
  r.p50_ok = cfg_.p50_target_s <= 0.0 || r.p50 <= cfg_.p50_target_s;
  r.p99_ok = cfg_.p99_target_s <= 0.0 || r.p99 <= cfg_.p99_target_s;
  if (cfg_.p99_target_s > 0.0) {
    const double share = static_cast<double>(window_violations_) /
                         static_cast<double>(ring_.size());
    r.burn_rate = share / cfg_.budget;
  }
  return r;
}

void SloMonitor::publish(telemetry::Registry& reg,
                         const std::string& labels) const {
  const SloReport r = report();
  reg.gauge("serve.slo.p50", labels).set(r.p50);
  reg.gauge("serve.slo.p99", labels).set(r.p99);
  reg.gauge("serve.slo.burn_rate", labels).set(r.burn_rate);
  reg.gauge("serve.slo.violations", labels)
      .set(static_cast<double>(r.violations));
}

std::string format_slo_report(const SloReport& r) {
  std::ostringstream os;
  os << "SLO: " << r.total << " queries (" << r.window_count
     << " in window), p50 " << r.p50 * 1e6 << " us";
  if (r.p50_target > 0.0)
    os << " vs " << r.p50_target * 1e6 << " us target ["
       << (r.p50_ok ? "ok" : "VIOLATED") << "]";
  os << ", p99 " << r.p99 * 1e6 << " us";
  if (r.p99_target > 0.0) {
    os << " vs " << r.p99_target * 1e6 << " us target ["
       << (r.p99_ok ? "ok" : "VIOLATED") << "], " << r.violations
       << " violations all-time, burn rate " << r.burn_rate
       << (r.burn_rate > 1.0 ? " (OVER BUDGET)" : "");
  }
  os << "\n";
  return os.str();
}

std::string format_slow_log(const SloMonitor& m) {
  std::ostringstream os;
  const auto& log = m.slow_log();
  os << "slow queries (threshold " << m.config().slow_threshold() * 1e6
     << " us, " << log.size() << " of " << m.config().slow_log_capacity
     << " slots):\n";
  for (const QueryStats& q : log) {
    os << "  qid " << q.qid << ": " << q.total * 1e6 << " us |";
    for (int s = 0; s < kNumStages; ++s)
      os << " " << stage_name(static_cast<Stage>(s)) << " "
         << q.stage[static_cast<std::size_t>(s)] * 1e6 << " us";
    os << (q.ok ? "" : " [error]") << "\n";
  }
  return os.str();
}

}  // namespace parfw::serve
