#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace gsx::obs {

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  GSX_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
              "Histogram: bucket bounds must be ascending");
}

void Histogram::atomic_add_double(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Histogram::observe(double v) noexcept {
  if (!enabled()) return;
  // Inclusive upper bounds (Prometheus "le" convention): v lands in the
  // first bucket whose bound is >= v.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
  if (prev == 0) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
    return;
  }
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}
double Histogram::sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
double Histogram::min() const noexcept { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const noexcept { return max_.load(std::memory_order_relaxed); }

double Histogram::percentile(double p) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t c = buckets_[b].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      // The +inf overflow bucket has no finite upper bound to interpolate
      // toward: report the observed max instead of a bucket-width guess.
      if (b == bounds_.size()) return max();
      // Interpolate within [lo, hi); clamp the open edges to observed range.
      const double lo = (b == 0) ? min() : bounds_[b - 1];
      const double hi = bounds_[b];
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(c);
      const double v = lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
      return std::clamp(v, min(), max());
    }
    cum += c;
  }
  return max();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::duration_bounds() {
  // 1 us .. 100 s, one bucket per factor sqrt(10): enough resolution for a
  // p95 on kernel and phase durations without per-sample storage.
  std::vector<double> b;
  for (double v = 1e-6; v < 2e2; v *= 3.1622776601683795) b.push_back(v);
  return b;
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map: stable report ordering and node-stable references.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Impl& Registry::impl() const {
  static Impl impl;
  return impl;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard lk(im.mutex);
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard lk(im.mutex);
  auto& slot = im.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  Impl& im = impl();
  std::lock_guard lk(im.mutex);
  auto& slot = im.histograms[name];
  if (!slot) {
    if (upper_bounds.empty()) upper_bounds = Histogram::duration_bounds();
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *slot;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard lk(im.mutex);
  for (auto& [_, c] : im.counters) c->reset();
  for (auto& [_, g] : im.gauges) g->reset();
  for (auto& [_, h] : im.histograms) h->reset();
}

std::vector<MetricSample> Registry::samples() const {
  Impl& im = impl();
  std::lock_guard lk(im.mutex);
  std::vector<MetricSample> out;
  out.reserve(im.counters.size() + im.gauges.size() + im.histograms.size());
  for (const auto& [name, c] : im.counters) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Counter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : im.gauges) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Gauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : im.histograms) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Histogram;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.p50 = h->percentile(0.50);
    s.p95 = h->percentile(0.95);
    s.p99 = h->percentile(0.99);
    s.p999 = h->percentile(0.999);
    s.bucket_bounds = h->upper_bounds();
    s.bucket_counts = h->bucket_counts();
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ScopedTimer

ScopedTimer::ScopedTimer(const char* histogram_name)
    : name_(histogram_name), start_(enabled() ? now_seconds() : -1.0) {}

ScopedTimer::~ScopedTimer() {
  if (start_ < 0.0 || !enabled()) return;
  Registry::instance().histogram(name_).observe(now_seconds() - start_);
}

}  // namespace gsx::obs
