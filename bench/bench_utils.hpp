// Shared helpers for the paper-reproduction benchmark harness.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geostat/covariance.hpp"
#include "geostat/field.hpp"
#include "geostat/locations.hpp"

namespace gsx::bench {

/// Environment-tunable scale knob: GSX_BENCH_SCALE=0.5 halves workloads,
/// =4 quadruples them. Defaults to 1 (a few seconds per binary on one core).
inline double bench_scale() {
  if (const char* s = std::getenv("GSX_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.0;
}

inline std::size_t scaled(std::size_t base) {
  const double v = static_cast<double>(base) * bench_scale();
  return static_cast<std::size_t>(v < 1 ? 1 : v);
}

/// Correlation presets matching the paper's weak/medium/strong settings
/// (theta_1 = 0.03 / 0.1 / 0.3 in Fig. 6 and Figs. 9-10).
struct CorrelationPreset {
  const char* name;
  double range;
};

inline const std::vector<CorrelationPreset>& correlation_presets() {
  static const std::vector<CorrelationPreset> presets = {
      {"weak (0.03)", 0.03}, {"medium (0.1)", 0.1}, {"strong (0.3)", 0.3}};
  return presets;
}

struct SpaceProblem {
  std::vector<geostat::Location> locs;
  std::vector<double> z;
};

/// Morton-sorted Matérn 2D problem with the given correlation range.
inline SpaceProblem make_space_problem(std::size_t n, double range, double smoothness = 0.5,
                                       std::uint64_t seed = 7) {
  Rng rng(seed);
  SpaceProblem p;
  p.locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(p.locs);
  const geostat::MaternCovariance model(1.0, range, smoothness, 1e-6);
  p.z = geostat::simulate_grf(model, p.locs, rng);
  return p;
}

/// Space-time Gneiting problem (time-major layout).
inline SpaceProblem make_spacetime_problem(std::size_t spatial_n, std::size_t slots,
                                           double range_s, double beta,
                                           std::uint64_t seed = 9) {
  Rng rng(seed);
  auto spatial = geostat::perturbed_grid_locations(spatial_n, rng);
  geostat::sort_morton(spatial);
  SpaceProblem p;
  p.locs = geostat::replicate_in_time(spatial, slots, 1.0);
  const geostat::GneitingCovariance model(1.0, range_s, 0.5, 0.5, 0.9, beta, 1e-6);
  p.z = geostat::simulate_grf(model, p.locs, rng);
  return p;
}

// ---------------------------------------------------------------------------
// Machine-readable results: every bench binary can mirror its table to a
// JSON file ("gsx-bench-v1") for regression tracking across commits.

struct BenchRecord {
  std::string name;
  std::size_t size = 0;   ///< problem size n (0 when not size-indexed)
  double seconds = 0.0;   ///< wall time per repetition
  double gflops = 0.0;    ///< effective rate; 0 when not meaningful
  /// "fraction" when `seconds` holds a near-zero ratio of either sign (an
  /// overhead), which bench_compare gates by absolute difference; empty for
  /// a time, and then not written.
  std::string unit = {};
};

/// Output path from `--json FILE` in leftover argv (framework flags already
/// consumed), or the GSX_BENCH_JSON environment variable. Empty = no JSON.
inline std::string json_out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  if (const char* s = std::getenv("GSX_BENCH_JSON")) return s;
  return {};
}

/// `analytics` (optional) is a pre-rendered JSON object — typically
/// obs::analytics_json() — embedded verbatim as an "analytics" member so a
/// bench file carries its own execution-analytics summary.
inline void write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records,
                             const std::string& analytics = {}) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"gsx-bench-v1\",\n");
  if (!analytics.empty()) std::fprintf(f, "  \"analytics\": %s,\n", analytics.c_str());
  std::fprintf(f, "  \"records\": [");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::string name;
    name.reserve(r.name.size());
    for (char c : r.name) {
      if (c == '"' || c == '\\') name += '\\';
      name += c;
    }
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"size\": %zu, \"seconds\": %.9g, "
                 "\"gflops\": %.9g%s%s%s}",
                 i ? "," : "", name.c_str(), r.size, r.seconds, r.gflops,
                 r.unit.empty() ? "" : ", \"unit\": \"", r.unit.c_str(),
                 r.unit.empty() ? "" : "\"");
  }
  std::fprintf(f, "%s]\n}\n", records.empty() ? "" : "\n  ");
  std::fclose(f);
  std::printf("bench: wrote %s (%zu records)\n", path.c_str(), records.size());
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

}  // namespace gsx::bench
