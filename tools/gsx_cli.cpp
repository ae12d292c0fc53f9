// gsx_cli — command-line driver for GeoStatX (the role ExaGeoStat's R/CLI
// front ends play for its users).
//
//   gsx_cli simulate --kernel matern --n 500 --theta 1,0.1,0.5 --out d.csv
//   gsx_cli fit      --data d.csv --kernel matern --variant tlr --workers 2
//   gsx_cli predict  --train d.csv --test t.csv --kernel matern
//                    --theta 1,0.1,0.5 --out pred.csv
//
// Kernels: matern (3 params), matern-nugget (4), powexp (3),
//          aniso-matern (5), gneiting (6).
// Variants: dense | mp | tlr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cholesky/tile_solve.hpp"
#include "core/model.hpp"
#include "data/dataset.hpp"
#include "geostat/field.hpp"
#include "geostat/kernel_registry.hpp"
#include "la/gemm_kernel.hpp"
#include "mathx/stats.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/hwcounters.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/checkpoint.hpp"
#include "serve/registry.hpp"

namespace {

using namespace gsx;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: gsx_cli <simulate|fit|predict> [options]\n"
               "  simulate --kernel K --n N --theta a,b,... [--seed S] [--spacetime T]"
               " --out FILE\n"
               "  fit      --data FILE --kernel K [--variant dense|mp|tlr]"
               " [--tile TS] [--workers W] [--start a,b,...] [--max-evals E]"
               " [--checkpoint FILE] [--profile PREFIX]\n"
               "  predict  --train FILE --test FILE --kernel K --theta a,b,..."
               " [--variant V] [--tile TS] [--workers W] [--out FILE]"
               " [--profile PREFIX]\n"
               "  predict  --from-checkpoint FILE --test FILE [--workers W]"
               " [--out FILE]\n"
               "--checkpoint saves MLE restart state on every improvement and the\n"
               "full fitted model (gsx-ckpt-v1) on completion; an existing\n"
               "fit-progress checkpoint at FILE resumes the interrupted fit\n"
               "kernels: matern matern-nugget powexp aniso-matern gneiting\n"
               "--profile writes PREFIX.trace.json (Chrome trace of the last\n"
               "4096 flight events per thread: phases and tasks),\n"
               "PREFIX.profile.json (per-iteration flop/precision/rank report)\n"
               "and PREFIX.flops.csv\n"
               "observability (any command):\n"
               "  --log-level trace|debug|info|warn|error|off   stderr logging\n"
               "  --log-json FILE    structured JSONL log sink (implies info)\n"
               "  --health PREFIX    numerical-health audit -> PREFIX.health.json\n"
               "                     (written even when the run fails)\n");
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage(("unexpected argument: " + key).c_str());
    key = key.substr(2);
    if (i + 1 >= argc) usage(("missing value for --" + key).c_str());
    flags[key] = argv[++i];
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags, const std::string& key,
                 const std::string& fallback = "") {
  const auto it = flags.find(key);
  if (it != flags.end()) return it->second;
  if (fallback.empty()) usage(("required flag --" + key).c_str());
  return fallback;
}

std::vector<double> parse_theta(const std::string& csv) {
  std::vector<double> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) out.push_back(std::atof(item.c_str()));
  if (out.empty()) usage("empty --theta / --start list");
  return out;
}

std::unique_ptr<geostat::CovarianceModel> make_kernel(const std::string& name,
                                                      const std::vector<double>* theta) {
  // Kernel construction lives in geostat::make_kernel (shared with the
  // serving layer, which reconstructs kernels from checkpoint metadata);
  // here we only translate its exceptions into CLI usage errors.
  try {
    return geostat::make_kernel(
        name, theta ? std::span<const double>(*theta) : std::span<const double>());
  } catch (const std::exception& e) {
    usage(e.what());
  }
}

/// Arm the observability layer when --profile PREFIX was given; returns
/// whether profiling is on. Also arms per-kernel hardware-counter sampling
/// (a clean no-op where perf_event_open is denied) and injects the GEMM peak
/// model so profile.json can report achieved-vs-peak rooflines.
bool begin_profile(const std::map<std::string, std::string>& flags) {
  if (!flags.count("profile")) return false;
#ifdef GSX_TELEMETRY_DISABLED
  // The trace is drawn from the flight rings, which this build never writes.
  std::fprintf(stderr,
               "gsx_cli: warning: built with GSX_TELEMETRY=OFF: %s.trace.json will hold "
               "no phase or task (profile.json's phase totals still count)\n",
               flags.at("profile").c_str());
#endif
  obs::reset_all();
  obs::set_enabled(true);
  obs::set_hw_enabled(true);
  obs::RooflinePeaks peaks;
  for (std::size_t p = 0; p < kNumPrecisions; ++p)
    peaks.peak_gflops_per_ghz[p] =
        la::gemm_peak_gflops(static_cast<Precision>(p), 1.0);
  peaks.fallback_ghz = la::measure_clock_ghz();
  peaks.isa = la::gemm_dispatch_info().isa;
  obs::set_roofline_peaks(peaks);
  return true;
}

/// Flush the profiled run to PREFIX.{trace.json,profile.json,flops.csv}.
/// The reports publish analytics/roofline gauges, so obs stays enabled until
/// they are written.
void end_profile(const std::map<std::string, std::string>& flags) {
  const std::string& prefix = flags.at("profile");
  obs::write_gantt_trace(obs::build_history(obs::FlightRecorder::instance().snapshot()),
                         prefix + ".trace.json");
  obs::write_profile_json(prefix + ".profile.json");
  obs::write_flops_csv(prefix + ".flops.csv");
  obs::set_hw_enabled(false);
  obs::set_enabled(false);
  std::printf("profile: wrote %s.trace.json, %s.profile.json, %s.flops.csv\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str());
}

/// Arm logging and the numerical-health ledger from the shared flags.
void setup_observability(const std::map<std::string, std::string>& flags) {
  if (flags.count("log-level")) {
    const auto lvl = obs::parse_log_level(flags.at("log-level"));
    if (!lvl) usage(("unknown log level: " + flags.at("log-level")).c_str());
    obs::set_log_level(*lvl);
  }
  if (flags.count("log-json")) {
    obs::open_log_json(flags.at("log-json"));
    // A JSONL sink with the default Off level would stay empty; default to
    // info unless the user chose a level explicitly.
    if (!flags.count("log-level")) obs::set_log_level(obs::LogLevel::Info);
  }
  if (flags.count("health")) {
    obs::reset_health();
    obs::set_health_enabled(true);
  }
}

/// Flush the health ledger (if armed) and close log sinks. Also called on
/// the failure path: the forensic dump matters most when the run dies.
void finish_observability(const std::map<std::string, std::string>& flags) {
  if (flags.count("health")) {
    const std::string path = flags.at("health") + ".health.json";
    obs::write_health_json(path);
    obs::set_health_enabled(false);
    std::printf("health: wrote %s\n", path.c_str());
  }
  obs::close_log_json();
}

core::ModelConfig make_config(const std::map<std::string, std::string>& flags) {
  core::ModelConfig cfg;
  const std::string variant = flag(flags, "variant", "tlr");
  if (variant == "dense") {
    cfg.variant = core::ComputeVariant::DenseFP64;
  } else if (variant == "mp") {
    cfg.variant = core::ComputeVariant::MPDense;
  } else if (variant == "tlr") {
    cfg.variant = core::ComputeVariant::MPDenseTLR;
  } else {
    usage(("unknown variant: " + variant).c_str());
  }
  cfg.tile_size = static_cast<std::size_t>(std::atoll(flag(flags, "tile", "64").c_str()));
  cfg.workers = static_cast<std::size_t>(std::atoll(flag(flags, "workers", "1").c_str()));
  return cfg;
}

int cmd_simulate(const std::map<std::string, std::string>& flags) {
  const std::vector<double> theta = parse_theta(flag(flags, "theta"));
  const auto kernel = make_kernel(flag(flags, "kernel"), &theta);
  const std::size_t n = static_cast<std::size_t>(std::atoll(flag(flags, "n").c_str()));
  const auto seed = static_cast<std::uint64_t>(std::atoll(flag(flags, "seed", "1").c_str()));
  const std::size_t slots =
      static_cast<std::size_t>(std::atoll(flag(flags, "spacetime", "0").c_str()));

  Rng rng(seed);
  data::Dataset d;
  if (slots > 0) {
    auto spatial = geostat::perturbed_grid_locations(n, rng);
    geostat::sort_morton(spatial);
    d.locations = geostat::replicate_in_time(spatial, slots, 1.0);
  } else {
    d.locations = geostat::perturbed_grid_locations(n, rng);
    geostat::sort_morton(d.locations);
  }
  d.values = geostat::simulate_grf(*kernel, d.locations, rng);
  const std::string out = flag(flags, "out");
  data::write_csv(out, d);
  std::printf("wrote %zu observations to %s\n", d.size(), out.c_str());
  return 0;
}

int cmd_fit(const std::map<std::string, std::string>& flags) {
  const data::Dataset d = data::read_csv(flag(flags, "data"));
  const std::string kernel_name = flag(flags, "kernel");
  const std::string ckpt_path =
      flags.count("checkpoint") ? flags.at("checkpoint") : std::string();

  std::unique_ptr<geostat::CovarianceModel> kernel;
  if (!ckpt_path.empty() && std::filesystem::exists(ckpt_path) &&
      serve::probe_checkpoint(ckpt_path) == serve::CheckpointKind::FitProgress) {
    // Restart an interrupted fit from its incumbent best.
    const serve::FitCheckpoint fc = serve::load_fit_checkpoint(ckpt_path);
    if (fc.kernel != kernel_name)
      usage(("checkpoint " + ckpt_path + " was fit with kernel " + fc.kernel).c_str());
    kernel = make_kernel(kernel_name, &fc.theta_best);
    std::printf("resuming from %s (loglik %.6f, %llu evaluations)\n", ckpt_path.c_str(),
                fc.loglik_best, static_cast<unsigned long long>(fc.evaluations));
  } else if (flags.count("start")) {
    const std::vector<double> start = parse_theta(flags.at("start"));
    kernel = make_kernel(kernel_name, &start);
  } else {
    kernel = make_kernel(kernel_name, nullptr);
  }
  core::ModelConfig cfg = make_config(flags);
  cfg.nm.max_evals =
      static_cast<std::size_t>(std::atoll(flag(flags, "max-evals", "200").c_str()));

  core::GsxModel::FitCallback on_improve;
  if (!ckpt_path.empty()) {
    on_improve = [&](const core::GsxModel::FitProgress& p) {
      serve::FitCheckpoint fc;
      fc.kernel = kernel_name;
      fc.theta_best.assign(p.theta_best.begin(), p.theta_best.end());
      fc.loglik_best = p.loglik_best;
      fc.evaluations = p.evaluations;
      serve::save_fit_checkpoint(ckpt_path, fc);
    };
  }

  const bool profiling = begin_profile(flags);
  const core::GsxModel model(kernel->clone(), cfg);
  const core::FitResult fit = model.fit(d.locations, d.values, on_improve);

  if (!ckpt_path.empty()) {
    // Replace the restart checkpoint with the full servable model: fitted
    // theta plus the tile Cholesky factor at that theta.
    serve::ModelCheckpoint mc;
    mc.kernel = kernel_name;
    mc.theta = fit.theta;
    mc.config = cfg;
    mc.train_locs = d.locations;
    mc.z_train = d.values;
    mc.factor = model.factor_at(fit.theta, d.locations);
    serve::save_model_checkpoint(ckpt_path, mc);
    std::printf("checkpoint: wrote fitted model to %s\n", ckpt_path.c_str());
  }
  if (profiling) end_profile(flags);

  std::printf("variant: %s\n", core::variant_name(cfg.variant));
  const auto names = kernel->param_names();
  for (std::size_t i = 0; i < fit.theta.size(); ++i)
    std::printf("  %-14s %.6f\n", names[i].c_str(), fit.theta[i]);
  std::printf("log-likelihood: %.6f\nevaluations: %zu\nconverged: %s\nseconds: %.2f\n",
              fit.loglik, fit.evaluations, fit.converged ? "yes" : "no", fit.seconds);
  return 0;
}

int cmd_predict(const std::map<std::string, std::string>& flags) {
  const data::Dataset test = data::read_csv(flag(flags, "test"));
  const bool profiling = begin_profile(flags);

  geostat::KrigingResult pred;
  if (flags.count("from-checkpoint")) {
    // Fit-once/predict-many path: reload the fitted model (kernel, theta,
    // factored Sigma_nn) and go straight to the tile-native solve.
    const std::size_t workers =
        static_cast<std::size_t>(std::atoll(flag(flags, "workers", "1").c_str()));
    const auto model =
        serve::LoadedModel::from_checkpoint("cli", flags.at("from-checkpoint"));
    pred = cholesky::tile_krige_solved(*model->kernel, model->factor, model->packed_factor,
                                       model->y_solved, model->train_locs, test.locations,
                                       true, workers);
  } else {
    const data::Dataset train = data::read_csv(flag(flags, "train"));
    const std::vector<double> theta = parse_theta(flag(flags, "theta"));
    const auto kernel = make_kernel(flag(flags, "kernel"), &theta);
    const core::ModelConfig cfg = make_config(flags);
    const core::GsxModel model(kernel->clone(), cfg);
    pred = model.predict(theta, train.locations, train.values, test.locations, true);
  }
  if (profiling) end_profile(flags);

  if (flags.count("out")) {
    data::Dataset out;
    out.locations = test.locations;
    out.values = pred.mean;
    data::write_csv(flags.at("out"), out);
    std::printf("wrote %zu predictions to %s\n", out.size(), flags.at("out").c_str());
  }
  if (!test.values.empty()) {
    std::printf("MSPE vs test values: %.6f\n", mathx::mspe(pred.mean, test.values));
  }
  double mean_sd = 0.0;
  for (double v : pred.variance) mean_sd += std::sqrt(std::max(0.0, v));
  std::printf("mean predictive sd: %.6f\n",
              mean_sd / static_cast<double>(pred.variance.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  try {
    flags = parse_flags(argc, argv, 2);
    setup_observability(flags);
    int rc = 2;
    if (cmd == "simulate") {
      rc = cmd_simulate(flags);
    } else if (cmd == "fit") {
      rc = cmd_fit(flags);
    } else if (cmd == "predict") {
      rc = cmd_predict(flags);
    } else {
      usage(("unknown command: " + cmd).c_str());
    }
    finish_observability(flags);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsx_cli: %s\n", e.what());
    if (const auto* ne = dynamic_cast<const gsx::NumericalError*>(&e);
        ne != nullptr && ne->has_context()) {
      const gsx::NumericalContext& c = ne->context();
      std::fprintf(stderr,
                   "  forensics: tile (%ld,%ld), pivot %d, precision %s, rule %s\n",
                   c.tile_i, c.tile_j, c.pivot,
                   std::string(gsx::precision_name(c.precision)).c_str(),
                   c.rule.c_str());
    }
    try {
      finish_observability(flags);
    } catch (const std::exception& e2) {
      std::fprintf(stderr, "gsx_cli: health dump failed: %s\n", e2.what());
    }
    return 1;
  }
}
