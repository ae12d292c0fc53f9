// Shared pieces of bench_e2e: options, the metric sink and small statistics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gsx::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured phase length
  bool trace = false;     ///< per-layer replay instead of the end-to-end run
  bool smoke = false;     ///< tiny sizes for the ctest
  std::string json;       ///< gsx-bench-v1 output path ("" = none)
};

/// What one run measured. Workloads add the metrics that apply to them;
/// main.cpp prints the catalogue of the selected mode.
struct Result {
  std::size_t n = 0;           ///< problem size, for the gsx-bench-v1 records
  std::size_t attempted = 0;   ///< timed operations plus correctness checks
  std::size_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Count one operation; `ok` false counts it as failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

Result run_loglik(const Options& opt);
Result run_fleet(const Options& opt);

/// la::gemm FP64 rate (GFlop/s) on ts x ts operands, C -= A B^T: the
/// trailing-update shape of the tile Cholesky.
double dgemm_gflops(std::size_t ts, std::uint64_t seed);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, p in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// |a - b| / max(|b|, floor): relative difference that stays finite near 0.
double rel_diff(double a, double b, double floor = 1e-300);

}  // namespace gsx::e2e
