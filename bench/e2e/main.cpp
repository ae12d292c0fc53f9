// bench_e2e: end-to-end benchmark of one log-likelihood evaluation l(theta)
// and of fleet kriging, with a per-layer replay.
//
//   bench_e2e --workload W --seed S [--seconds T] [--trace] [--smoke] [--json FILE]
//
// Workloads: loglik-mp, loglik-tlr, loglik-fine, predict-fleet (see
// README.md for what each one stresses and why). The untraced run times
// only public end-to-end calls (GsxModel::evaluate; predict/load lines over
// TCP to a router in front of three replicas) and prints the end-to-end
// metrics. --trace replays the same inputs layer by layer and prints the
// per-layer metrics instead. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// The run happens in a fresh mkdtemp directory under $TMPDIR, and refuses
// to start when a GEMM tuning profile or blocking override could change
// the kernels between two runs being compared.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <span>
#include <string>

#include <unistd.h>

#include "e2e.hpp"
#include "la/gemm_kernel.hpp"

namespace gsx::e2e {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double rel_diff(double a, double b, double floor) {
  return std::abs(a - b) / std::max(std::abs(b), floor);
}

}  // namespace gsx::e2e

namespace {

using namespace gsx;

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_better;
};

// Keep in step with BENCHMARK.json; the bench_e2e_smoke ctest checks that
// every metric named there is printed with the unit given there.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", false},
    {"op_median_s", "s", false},
};

// A layer a workload does not exercise reads 0 (e.g. serve.* on loglik-*).
constexpr MetricSpec kPerLayer[] = {
    {"geostat.assemble_s", "s", false},
    {"geostat.assemble_melem_per_s", "Melem/s", true},
    {"tlr.compress_s", "s", false},
    {"tlr.compressed_tiles", "count", false},
    {"tlr.lr_tiles_kept", "count", true},
    {"tlr.kept_frac", "ratio", true},
    {"tlr.avg_rank", "count", false},
    {"tlr.max_rank", "count", false},
    {"tlr.revert_s", "s", false},
    {"perfmodel.calibrate_s", "s", false},
    {"perfmodel.tune_s", "s", false},
    {"perfmodel.band", "count", false},
    {"cholesky.policy_s", "s", false},
    {"cholesky.fp64_tiles", "count", false},
    {"cholesky.fp32_tiles", "count", false},
    {"cholesky.fp16_tiles", "count", false},
    {"cholesky.bf16_tiles", "count", false},
    {"cholesky.footprint_mb", "MiB", false},
    {"cholesky.factorize_s", "s", false},
    {"cholesky.factorize_gflops", "GFlop/s", true},
    {"cholesky.loglik_solve_s", "s", false},
    {"runtime.tasks", "count", false},
    {"runtime.critical_path_tasks", "count", false},
    {"runtime.parallel_eff", "ratio", true},
    {"runtime.idle_s", "s", false},
    {"runtime.speedup_4w", "ratio", true},
    {"runtime.empty_tasks_per_s", "1/s", true},
    {"la.dgemm_gflops", "GFlop/s", true},
    {"router.hop_s", "s", false},
    {"serve.predict_rps", "1/s", true},
    {"serve.queue_s", "s", false},
    {"serve.assemble_s", "s", false},
    {"serve.solve_s", "s", false},
    {"serve.batch_mean", "count", true},
    {"serve.replica_share_max", "ratio", false},
    {"serve.p99_s", "s", false},
    {"serve.swap_s", "s", false},
    {"serve.resident_mb", "MiB", false},
    {"replay.loglik_s", "s", false},
    {"replay.loglik_rel_diff", "ratio", false},
    {"unattributed_s", "s", false},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload loglik-mp|loglik-tlr|loglik-fine|predict-fleet\n"
               "          --seed S [--seconds T] [--trace] [--smoke] [--json FILE]\n",
               argv0);
  return 2;
}

/// Anything that changes GEMM blockings between two compared runs.
bool environment_is_fixed() {
  bool fixed = true;
  for (const char* var : {"GSX_TUNE_PROFILE", "GSX_GEMM_MC", "GSX_GEMM_KC", "GSX_GEMM_NC",
                          "GSX_GEMM_ISA"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "bench_e2e: %s is set; unset it for comparable runs\n", var);
      fixed = false;
    }
  }
  if (std::filesystem::exists("gsx-tune.json")) {
    std::fprintf(stderr,
                 "bench_e2e: ./gsx-tune.json is present; move it away for comparable runs\n");
    fixed = false;
  }
  return fixed;
}

double value_of(const std::map<std::string, double>& values, const char* name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

std::string metrics_json(std::span<const MetricSpec> specs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", value_of(values, specs[i].name));
    out += (i ? ", \"" : "\"") + std::string(specs[i].name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}";
}

/// gsx-bench-v1 file that tools/bench_compare gates unchanged: lower-is-better
/// values in `seconds`, higher-is-better values in `gflops`, plus `unit`.
bool write_bench_json(const std::string& path, const e2e::Options& opt, std::size_t n,
                      std::span<const MetricSpec> specs,
                      const std::map<std::string, double>& values) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"schema\": \"gsx-bench-v1\",\n  \"isa\": \"%s\",\n"
               "  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"trace\": %s,\n"
               "  \"records\": [",
               la::gemm_kernel_isa(), opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.trace ? "true" : "false");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double v = value_of(values, specs[i].name);
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s %s\", \"size\": %zu, \"seconds\": %.17g, "
                 "\"gflops\": %.17g, \"unit\": \"%s\"}",
                 i ? "," : "", opt.workload.c_str(), specs[i].name, n,
                 specs[i].higher_better ? 0.0 : v, specs[i].higher_better ? v : 0.0,
                 specs[i].unit);
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage(argv[0]);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
      if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) return usage(argv[0]);
    } else if (a == "--json" && has_value) {
      opt.json = std::filesystem::absolute(argv[++i]).string();
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  const bool loglik = opt.workload == "loglik-mp" || opt.workload == "loglik-tlr" ||
                      opt.workload == "loglik-fine";
  if (!have_seed || !(loglik || opt.workload == "predict-fleet")) return usage(argv[0]);
  if (!environment_is_fixed()) return 2;

  // A private working directory: checkpoints land here, and no stray
  // ./gsx-tune.json can be picked up by the lazy GEMM configuration.
  const std::filesystem::path home = std::filesystem::current_path();
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "gsx-e2e-XXXXXX").string();
  if (::mkdtemp(dir_template.data()) == nullptr) {
    std::perror("bench_e2e: mkdtemp");
    return 2;
  }
  const std::filesystem::path workdir = dir_template;
  std::filesystem::current_path(workdir);

  std::printf("bench_e2e workload=%s seed=%llu seconds=%g mode=%s isa=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? "trace" : "end-to-end", la::gemm_kernel_isa());
  e2e::Result r;
  int status = 0;
  try {
    r = loglik ? e2e::run_loglik(opt) : e2e::run_fleet(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    status = 1;
  }
  std::filesystem::current_path(home);
  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  if (status != 0) return status;

  for (auto& [name, v] : r.values) {
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "bench_e2e: %s is not finite\n", name.c_str());
      r.check(false);
      v = 0.0;
    }
  }
  const std::span<const MetricSpec> specs =
      opt.trace ? std::span<const MetricSpec>(kPerLayer)
                : std::span<const MetricSpec>(kEndToEnd);
  if (!opt.json.empty() && !write_bench_json(opt.json, opt, r.n, specs, r.values)) return 1;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              r.failed == 0 && r.attempted > 0 ? "true" : "false", r.attempted, r.failed,
              metrics_json(specs, r.values).c_str());
  return 0;
}
