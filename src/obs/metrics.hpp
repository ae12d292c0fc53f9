// Process-wide metrics registry: named counters, gauges and histograms plus
// scoped RAII timers.
//
// Observability is opt-in: every recording call first checks a single
// process-wide atomic flag (obs::enabled(), relaxed load), so the cost of a
// disabled metric in a hot kernel is one predictable branch. Instruments are
// created lazily by name and live for the process lifetime; references
// returned by the registry remain valid across reset() (reset clears values,
// not identities), so hot paths may cache them.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace gsx::obs {

/// Global recording switch. Off by default: all record paths no-op.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (e.g. a footprint in bytes, a tuned band size).
class Gauge {
 public:
  void set(double v) noexcept {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with atomic counts; observe() is lock-free.
/// Buckets are defined by ascending inclusive upper bounds (Prometheus "le"
/// convention); an implicit +inf bucket catches the tail. Percentiles are estimated by linear interpolation
/// within the containing bucket (exact min/max are tracked separately).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  /// p in [0, 1]; returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double p) const noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts (size = upper_bounds().size() + 1, last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  void reset() noexcept;

  /// Default bounds for second-scale durations: 1 us .. 100 s, log-spaced.
  static std::vector<double> duration_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};

  void atomic_add_double(std::atomic<double>& a, double v) noexcept;
};

/// Snapshot of one named instrument (for reports and the Prometheus export).
struct MetricSample {
  std::string name;
  enum class Kind { Counter, Gauge, Histogram } kind = Kind::Counter;
  double value = 0.0;           ///< counter value or gauge reading
  std::uint64_t count = 0;      ///< histogram observation count
  double sum = 0.0, min = 0.0, max = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0,
         p999 = 0.0;
  std::vector<double> bucket_bounds;          ///< histogram "le" upper bounds
  std::vector<std::uint64_t> bucket_counts;   ///< per-bucket (non-cumulative),
                                              ///< size = bounds + 1 (overflow)
};

/// Process-wide instrument registry. Lookup takes a mutex — cache the
/// returned reference outside loops; recording on the instrument itself is
/// lock-free.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Creates the histogram with `upper_bounds` on first use; later calls
  /// with the same name return the existing instrument unchanged.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds = {});

  /// Zero every instrument's value (identities and bounds survive).
  void reset();

  /// Stable-ordered samples of every instrument.
  [[nodiscard]] std::vector<MetricSample> samples() const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// RAII timer recording seconds into a named histogram on destruction.
/// Resolves the histogram only when enabled, so a disabled timer costs one
/// branch at construction and one at destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* histogram_name);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  const char* name_;
  double start_ = 0.0;  ///< obs epoch seconds; < 0 means disabled at entry
};

}  // namespace gsx::obs
