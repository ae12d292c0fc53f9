#include "obs/health.hpp"

#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace gsx::obs {

namespace {

std::atomic<bool> g_health{false};
std::atomic<std::uint64_t> g_nonfinite_total{0};

/// Detail-record cap: aggregates stay exact past it; the drop counters keep
/// the truncation visible in the report (never a silent cap).
constexpr std::size_t kMaxDetailRecords = 4096;

struct Store {
  std::mutex mutex;

  BoundAudit bound;
  std::vector<DemotionRecord> demotions;
  double demotion_sum_sq = 0.0;  ///< running sum mult * err^2, current context

  TlrAudit tlr_audit;
  std::vector<TlrRecord> tlr;

  std::vector<NonfiniteRecord> nonfinite;
  std::vector<ConditionEstimate> conditions;

  std::vector<ConvergenceReport> convergence;
  ConvergenceMonitor monitor{};
  bool monitor_open = false;

  std::vector<FailureRecord> failures;
};

Store& store() {
  static Store s;
  return s;
}

/// JSON numbers cannot be inf/nan; quote them so the document stays valid.
void write_num(std::ostream& os, double v) {
  if (std::isfinite(v))
    os << v;
  else
    os << '"' << (v > 0 ? "inf" : (v < 0 ? "-inf" : "nan")) << '"';
}

}  // namespace

bool health_enabled() noexcept { return g_health.load(std::memory_order_relaxed); }
void set_health_enabled(bool on) noexcept {
  g_health.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Demotion audit.

void record_bound_context(const char* rule, double eps_target, double global_norm,
                          std::size_t nt) {
  if (!health_enabled()) return;
  Store& s = store();
  std::lock_guard lk(s.mutex);
  s.bound.rule = rule;
  s.bound.eps_target = eps_target;
  s.bound.global_norm = global_norm;
  s.bound.nt = nt;
  // A new context starts a new evaluation: the per-evaluation Frobenius sum
  // restarts, the maxima and counters keep accumulating.
  s.demotion_sum_sq = 0.0;
  s.demotions.clear();
  s.bound.recorded = 0;
}

void record_demotion(const DemotionRecord& r) {
  if (!health_enabled()) return;
  Store& s = store();
  std::lock_guard lk(s.mutex);
  ++s.bound.demoted_tiles;
  const double mult = (r.i == r.j) ? 1.0 : 2.0;
  s.demotion_sum_sq += mult * r.observed_err * r.observed_err;
  if (r.budget > 0.0)
    s.bound.max_budget_ratio =
        std::max(s.bound.max_budget_ratio, r.observed_err / r.budget);
  s.bound.observed_total_err = std::sqrt(s.demotion_sum_sq);
  s.bound.observed_rel_err = (s.bound.global_norm > 0.0)
                                 ? s.bound.observed_total_err / s.bound.global_norm
                                 : 0.0;
  s.bound.bound_satisfied = s.bound.eps_target <= 0.0 ||
                            s.bound.observed_rel_err <= s.bound.eps_target;
  if (s.demotions.size() < kMaxDetailRecords) {
    s.demotions.push_back(r);
    s.bound.recorded = s.demotions.size();
  } else {
    ++s.bound.dropped;
  }
}

// ---------------------------------------------------------------------------
// TLR audit.

void record_tlr(const TlrRecord& r) {
  if (!health_enabled()) return;
  Store& s = store();
  std::lock_guard lk(s.mutex);
  ++s.tlr_audit.tiles;
  s.tlr_audit.max_observed_err = std::max(s.tlr_audit.max_observed_err, r.observed_err);
  s.tlr_audit.max_tol = std::max(s.tlr_audit.max_tol, r.tol);
  // Slack factor: FP32-stored factors re-round the truncated representation,
  // so the observed error may exceed the SVD truncation tolerance by the
  // storage roundoff contribution.
  if (r.observed_err > r.tol * 1.05 + 1e-30) s.tlr_audit.within_tol = false;
  if (s.tlr.size() < kMaxDetailRecords) {
    s.tlr.push_back(r);
    s.tlr_audit.recorded = s.tlr.size();
  } else {
    ++s.tlr_audit.dropped;
  }
}

// ---------------------------------------------------------------------------
// NaN/Inf sentinels.

void record_nonfinite(const char* where, long i, long j, std::size_t count) {
  if (!health_enabled() || count == 0) return;
  g_nonfinite_total.fetch_add(count, std::memory_order_relaxed);
  Store& s = store();
  std::lock_guard lk(s.mutex);
  if (s.nonfinite.size() < kMaxDetailRecords)
    s.nonfinite.push_back({where, i, j, count});
}

std::uint64_t nonfinite_total() noexcept {
  return g_nonfinite_total.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Condition estimate.

void record_condition(const ConditionEstimate& c) {
  if (!health_enabled()) return;
  Store& s = store();
  std::lock_guard lk(s.mutex);
  if (s.conditions.size() < kMaxDetailRecords) s.conditions.push_back(c);
}

// ---------------------------------------------------------------------------
// Convergence monitor.

ConvergenceMonitor::ConvergenceMonitor(double ftol, std::size_t window)
    : ftol_(ftol), window_(window < 2 ? 2 : window) {}

void ConvergenceMonitor::add(double best_fval, double candidate_fval,
                             double step_norm) {
  OptIteration it;
  it.iter = traj_.size();
  it.best_fval = best_fval;
  it.candidate_fval = candidate_fval;
  it.step_norm = step_norm;
  traj_.push_back(it);
  if (std::isfinite(candidate_fval))
    nonfinite_streak_ = 0;
  else
    ++nonfinite_streak_;
}

void ConvergenceMonitor::finish(bool converged) {
  finished_ = true;
  converged_ = converged;
}

bool ConvergenceMonitor::stalled() const noexcept {
  if (converged_ || traj_.size() < window_) return false;
  const OptIteration& last = traj_.back();
  const OptIteration& ref = traj_[traj_.size() - window_];
  if (!std::isfinite(last.best_fval) || !std::isfinite(ref.best_fval)) return false;
  const double improvement = ref.best_fval - last.best_fval;
  return improvement < ftol_ * std::max(1.0, std::fabs(last.best_fval));
}

bool ConvergenceMonitor::diverged() const noexcept {
  if (traj_.size() >= window_ && !std::isfinite(traj_.back().best_fval)) return true;
  return nonfinite_streak_ >= window_;
}

void begin_convergence(const char* optimizer, double ftol, std::size_t window) {
  if (!health_enabled()) return;
  Store& s = store();
  std::lock_guard lk(s.mutex);
  if (s.monitor_open && !s.convergence.empty()) {
    // Previous trajectory was never closed (optimizer threw): flush what the
    // monitor collected so the report keeps the partial run.
    ConvergenceReport& prev = s.convergence.back();
    prev.trajectory = s.monitor.trajectory();
    prev.stalled = s.monitor.stalled();
    prev.diverged = s.monitor.diverged();
  }
  ConvergenceReport r;
  r.optimizer = optimizer;
  s.convergence.push_back(std::move(r));
  s.monitor = ConvergenceMonitor(ftol, window);
  s.monitor_open = true;
}

void record_opt_iteration(double best_fval, double candidate_fval, double step_norm) {
  if (!health_enabled()) return;
  Store& s = store();
  std::lock_guard lk(s.mutex);
  if (!s.monitor_open) return;
  s.monitor.add(best_fval, candidate_fval, step_norm);
}

void end_convergence(bool converged) {
  if (!health_enabled()) return;
  Store& s = store();
  std::lock_guard lk(s.mutex);
  if (!s.monitor_open || s.convergence.empty()) return;
  s.monitor.finish(converged);
  ConvergenceReport& r = s.convergence.back();
  r.trajectory = s.monitor.trajectory();
  r.stalled = s.monitor.stalled();
  r.diverged = s.monitor.diverged();
  r.converged = converged;
  s.monitor_open = false;
}

// ---------------------------------------------------------------------------
// Forensics.

void record_failure(FailureRecord r) {
  if (!health_enabled()) return;
  Store& s = store();
  std::lock_guard lk(s.mutex);
  if (r.trajectory.empty() && s.monitor_open) {
    const auto& traj = s.monitor.trajectory();
    r.trajectory.reserve(traj.size());
    for (const OptIteration& it : traj) r.trajectory.push_back(it.best_fval);
  }
  if (s.failures.size() < kMaxDetailRecords) s.failures.push_back(std::move(r));
}

// ---------------------------------------------------------------------------
// Snapshot / report.

HealthSnapshot health_snapshot() {
  Store& s = store();
  std::lock_guard lk(s.mutex);
  HealthSnapshot out;
  out.bound = s.bound;
  out.demotions = s.demotions;
  out.tlr_audit = s.tlr_audit;
  out.tlr = s.tlr;
  out.nonfinite = s.nonfinite;
  out.conditions = s.conditions;
  out.convergence = s.convergence;
  // Surface a still-open trajectory (fit in progress / optimizer threw).
  if (s.monitor_open && !out.convergence.empty()) {
    ConvergenceReport& r = out.convergence.back();
    r.trajectory = s.monitor.trajectory();
    r.stalled = s.monitor.stalled();
    r.diverged = s.monitor.diverged();
  }
  out.failures = s.failures;
  return out;
}

void reset_health() {
  Store& s = store();
  std::lock_guard lk(s.mutex);
  s.bound = BoundAudit{};
  s.demotions.clear();
  s.demotion_sum_sq = 0.0;
  s.tlr_audit = TlrAudit{};
  s.tlr.clear();
  s.nonfinite.clear();
  s.conditions.clear();
  s.convergence.clear();
  s.monitor = ConvergenceMonitor{};
  s.monitor_open = false;
  s.failures.clear();
  g_nonfinite_total.store(0, std::memory_order_relaxed);
}

void write_health_json(const std::string& path) {
  const HealthSnapshot h = health_snapshot();
  std::ofstream os(path);
  GSX_REQUIRE(os.good(), "write_health_json: cannot open " + path);
  os << std::setprecision(12);

  os << "{\n  \"schema\": \"gsx-health-v1\",\n";

  // Bound audit.
  os << "  \"bound_audit\": {\"rule\": \"" << json_escape(h.bound.rule)
     << "\", \"eps_target\": ";
  write_num(os, h.bound.eps_target);
  os << ", \"global_norm\": ";
  write_num(os, h.bound.global_norm);
  os << ", \"nt\": " << h.bound.nt
     << ", \"demoted_tiles\": " << h.bound.demoted_tiles
     << ", \"recorded\": " << h.bound.recorded << ", \"dropped\": " << h.bound.dropped
     << ", \"max_budget_ratio\": ";
  write_num(os, h.bound.max_budget_ratio);
  os << ", \"observed_total_err\": ";
  write_num(os, h.bound.observed_total_err);
  os << ", \"observed_rel_err\": ";
  write_num(os, h.bound.observed_rel_err);
  os << ", \"bound_satisfied\": " << (h.bound.bound_satisfied ? "true" : "false")
     << "},\n";

  // Per-tile demotion records.
  os << "  \"demotions\": [";
  for (std::size_t k = 0; k < h.demotions.size(); ++k) {
    const DemotionRecord& d = h.demotions[k];
    os << (k ? "," : "") << "\n    {\"tile\": [" << d.i << ", " << d.j
       << "], \"precision\": \"" << precision_name(d.chosen) << "\", \"tile_norm\": ";
    write_num(os, d.tile_norm);
    os << ", \"budget\": ";
    write_num(os, d.budget);
    os << ", \"guaranteed_err\": ";
    write_num(os, d.guaranteed_err);
    os << ", \"observed_err\": ";
    write_num(os, d.observed_err);
    os << "}";
  }
  os << (h.demotions.empty() ? "]" : "\n  ]") << ",\n";

  // TLR audit.
  os << "  \"tlr_audit\": {\"tiles\": " << h.tlr_audit.tiles
     << ", \"recorded\": " << h.tlr_audit.recorded
     << ", \"dropped\": " << h.tlr_audit.dropped << ", \"max_observed_err\": ";
  write_num(os, h.tlr_audit.max_observed_err);
  os << ", \"max_tol\": ";
  write_num(os, h.tlr_audit.max_tol);
  os << ", \"within_tol\": " << (h.tlr_audit.within_tol ? "true" : "false") << "},\n";
  os << "  \"tlr\": [";
  for (std::size_t k = 0; k < h.tlr.size(); ++k) {
    const TlrRecord& t = h.tlr[k];
    os << (k ? "," : "") << "\n    {\"tile\": [" << t.i << ", " << t.j
       << "], \"rank\": " << t.rank << ", \"tol\": ";
    write_num(os, t.tol);
    os << ", \"observed_err\": ";
    write_num(os, t.observed_err);
    os << ", \"fp32\": " << (t.fp32 ? "true" : "false") << "}";
  }
  os << (h.tlr.empty() ? "]" : "\n  ]") << ",\n";

  // NaN/Inf sentinels.
  os << "  \"nonfinite_total\": " << nonfinite_total() << ",\n";
  os << "  \"nonfinite\": [";
  for (std::size_t k = 0; k < h.nonfinite.size(); ++k) {
    const NonfiniteRecord& f = h.nonfinite[k];
    os << (k ? "," : "") << "\n    {\"where\": \"" << json_escape(f.where)
       << "\", \"tile\": [" << f.i << ", " << f.j << "], \"count\": " << f.count << "}";
  }
  os << (h.nonfinite.empty() ? "]" : "\n  ]") << ",\n";

  // Condition estimates.
  os << "  \"condition\": [";
  for (std::size_t k = 0; k < h.conditions.size(); ++k) {
    const ConditionEstimate& c = h.conditions[k];
    os << (k ? "," : "") << "\n    {\"lambda_max\": ";
    write_num(os, c.lambda_max);
    os << ", \"lambda_min\": ";
    write_num(os, c.lambda_min);
    os << ", \"cond2\": ";
    write_num(os, c.cond2());
    os << ", \"n\": " << c.n << ", \"iterations\": " << c.iterations
       << ", \"method\": \"" << json_escape(c.method) << "\"}";
  }
  os << (h.conditions.empty() ? "]" : "\n  ]") << ",\n";

  // Convergence.
  os << "  \"convergence\": [";
  for (std::size_t k = 0; k < h.convergence.size(); ++k) {
    const ConvergenceReport& c = h.convergence[k];
    os << (k ? "," : "") << "\n    {\"optimizer\": \"" << json_escape(c.optimizer)
       << "\", \"iterations\": " << c.trajectory.size()
       << ", \"stalled\": " << (c.stalled ? "true" : "false")
       << ", \"diverged\": " << (c.diverged ? "true" : "false")
       << ", \"converged\": " << (c.converged ? "true" : "false")
       << ",\n     \"trajectory\": [";
    for (std::size_t t = 0; t < c.trajectory.size(); ++t) {
      const OptIteration& it = c.trajectory[t];
      os << (t ? ", " : "") << "{\"iter\": " << it.iter << ", \"best\": ";
      write_num(os, it.best_fval);
      os << ", \"candidate\": ";
      write_num(os, it.candidate_fval);
      os << ", \"step\": ";
      write_num(os, it.step_norm);
      os << "}";
    }
    os << "]}";
  }
  os << (h.convergence.empty() ? "]" : "\n  ]") << ",\n";

  // Failures.
  os << "  \"failures\": [";
  for (std::size_t k = 0; k < h.failures.size(); ++k) {
    const FailureRecord& f = h.failures[k];
    os << (k ? "," : "") << "\n    {\"what\": \"" << json_escape(f.what)
       << "\", \"tile\": [" << f.tile_i << ", " << f.tile_j
       << "], \"pivot\": " << f.pivot << ", \"precision\": \""
       << precision_name(f.precision) << "\", \"tile_norm\": ";
    write_num(os, f.tile_norm);
    os << ", \"rule\": \"" << json_escape(f.rule) << "\",\n     \"neighbors\": [";
    for (std::size_t m = 0; m < f.neighbors.size(); ++m) {
      const NeighborTile& nb = f.neighbors[m];
      os << (m ? ", " : "") << "{\"tile\": [" << nb.i << ", " << nb.j
         << "], \"code\": \"" << nb.code << "\", \"rank\": " << nb.rank
         << ", \"precision\": \"" << precision_name(nb.precision) << "\"}";
    }
    os << "],\n     \"trajectory\": [";
    for (std::size_t m = 0; m < f.trajectory.size(); ++m) {
      os << (m ? ", " : "");
      write_num(os, f.trajectory[m]);
    }
    os << "]}";
  }
  os << (h.failures.empty() ? "]" : "\n  ]") << "\n}\n";
  GSX_REQUIRE(os.good(), "write_health_json: write failed for " + path);
}

}  // namespace gsx::obs
