// GsxModel: the paper's contribution as a single public API.
//
// Configure a covariance family and a compute variant
// (DenseFP64 / MPDense / MPDenseTLR), then:
//   evaluate()  — one log-likelihood evaluation through the adaptive tile
//                 Cholesky (the proxy the paper benchmarks at scale),
//   fit()       — full MLE with Nelder-Mead or parallel PSO,
//   predict()   — kriging with uncertainty through the same variant.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "cholesky/factorize.hpp"
#include "cholesky/precision_policy.hpp"
#include "cholesky/tile_solve.hpp"
#include "geostat/covariance.hpp"
#include "geostat/likelihood.hpp"
#include "geostat/prediction.hpp"
#include "optim/nelder_mead.hpp"
#include "optim/pso.hpp"
#include "perfmodel/band_tuner.hpp"

namespace gsx::core {

enum class ComputeVariant : unsigned char {
  DenseFP64,   ///< reference: all tiles dense FP64
  MPDense,     ///< mixed-precision dense tiles (band or adaptive rule)
  MPDenseTLR,  ///< mixed precision + tile low-rank with dense band
};

[[nodiscard]] constexpr const char* variant_name(ComputeVariant v) noexcept {
  switch (v) {
    case ComputeVariant::DenseFP64: return "Dense FP64";
    case ComputeVariant::MPDense: return "MP+dense";
    case ComputeVariant::MPDenseTLR: return "MP+dense/TLR";
  }
  return "?";
}

enum class OptimizerKind : unsigned char { NelderMead, ParticleSwarm };

struct ModelConfig {
  ComputeVariant variant = ComputeVariant::DenseFP64;
  std::size_t tile_size = 80;
  std::size_t workers = 1;
  /// Unread: the task runtime has one ready-queue policy (rt::SchedPolicy).
  rt::SchedPolicy sched = rt::SchedPolicy::Priority;

  // Mixed-precision policy (MPDense and the dense band of MPDenseTLR).
  cholesky::PrecisionRule mp_rule = cholesky::PrecisionRule::AdaptiveFrobenius;
  cholesky::BandConfig band;
  double eps_target = 1.0e-8;
  bool allow_fp16 = true;
  bool allow_bf16 = false;  ///< BF16 fallback for FP16-underflowing tiles

  // TLR configuration (MPDenseTLR).
  double tlr_tol = 1.0e-8;
  /// Unread: tiles have one compressor (tlr::compress_svd).
  tlr::CompressionMethod compression = tlr::CompressionMethod::SVD;
  /// Unread: low-rank accumulations have one rounding (tlr::recompress).
  tlr::RoundingMethod rounding = tlr::RoundingMethod::Rrqr;
  bool auto_band = true;       ///< Algorithm 2 band auto-tuning
  std::size_t band_size = 2;   ///< used when auto_band is off
  double fluctuation = 1.0;    ///< Algorithm 2 hysteresis factor
  bool lr_fp32 = true;
  /// Performance model for the structure-aware decision: calibrated once on
  /// this machine (default, as the paper measures Fig. 5 on an A64FX core)
  /// or the deterministic flop model (reproducible tests).
  bool calibrate_perf_model = true;

  // Optimizer.
  OptimizerKind optimizer = OptimizerKind::NelderMead;
  optim::NelderMeadOptions nm;
  optim::PsoOptions pso;
};

/// What one evaluation did (per-variant diagnostics for the benches).
struct EvalBreakdown {
  std::size_t band_size_dense = 1;        ///< Algorithm 2 outcome
  cholesky::FactorReport factor;
  double total_seconds = 0.0;
  std::size_t footprint_bytes = 0;        ///< matrix bytes entering POTRF
  std::size_t dense_fp64_bytes = 0;       ///< baseline MF for the same matrix
};

struct FitResult {
  std::vector<double> theta;
  double loglik = 0.0;
  std::size_t evaluations = 0;
  bool converged = false;
  double seconds = 0.0;
};

class GsxModel {
 public:
  GsxModel(std::unique_ptr<geostat::CovarianceModel> prototype, ModelConfig config);

  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }
  [[nodiscard]] const geostat::CovarianceModel& prototype() const noexcept {
    return *prototype_;
  }

  /// One log-likelihood evaluation at `theta` through the configured
  /// variant. Thread-compatible: concurrent calls on the same GsxModel are
  /// safe (each builds its own matrix).
  geostat::LoglikValue evaluate(std::span<const double> theta,
                                std::span<const geostat::Location> locs,
                                std::span<const double> z,
                                EvalBreakdown* breakdown = nullptr) const;

  /// Progress callback invoked (serialized, under an internal mutex) each
  /// time the MLE finds a new best point — the checkpoint/restart hook for
  /// long-running fits.
  struct FitProgress {
    std::span<const double> theta_best;
    double loglik_best = 0.0;
    std::size_t evaluations = 0;
  };
  using FitCallback = std::function<void(const FitProgress&)>;

  /// Maximum likelihood fit. Starting point: prototype parameters.
  /// `on_improve`, when set, fires on every new incumbent best.
  FitResult fit(std::span<const geostat::Location> locs, std::span<const double> z,
                const FitCallback& on_improve = {}) const;

  /// Kriging prediction using the configured variant's Cholesky factor at
  /// `theta` (so MSPE reflects the variant's accuracy, as in Tables I/II).
  geostat::KrigingResult predict(std::span<const double> theta,
                                 std::span<const geostat::Location> train_locs,
                                 std::span<const double> z_train,
                                 std::span<const geostat::Location> test_locs,
                                 bool with_variance = true) const;

  /// Assemble and factor Sigma_nn at `theta` through the configured variant,
  /// returning the tile Cholesky factor (the object a serving checkpoint
  /// persists: fit once, factor once, predict many). Throws NumericalError
  /// with forensic context if the covariance is not SPD at `theta`.
  tile::SymTileMatrix factor_at(std::span<const double> theta,
                                std::span<const geostat::Location> locs,
                                EvalBreakdown* breakdown = nullptr) const;

  /// Build the decision-annotated tile matrix at `theta` (policy applied,
  /// TLR compression done, no factorization): feeds the Fig. 9 heat maps.
  tile::SymTileMatrix build_decision_matrix(std::span<const double> theta,
                                            std::span<const geostat::Location> locs,
                                            EvalBreakdown* breakdown = nullptr) const;

 private:
  /// Generation + policy + (optional) compression + factorization.
  /// Returns false if the covariance was not SPD at `theta`.
  bool prepare_and_factor(std::span<const double> theta,
                          std::span<const geostat::Location> locs,
                          tile::SymTileMatrix& out, EvalBreakdown* breakdown) const;

  void prepare(std::span<const double> theta, std::span<const geostat::Location> locs,
               tile::SymTileMatrix& out, EvalBreakdown* breakdown) const;

  [[nodiscard]] const perfmodel::KernelModel& perf_model(std::size_t ts) const;

  std::unique_ptr<geostat::CovarianceModel> prototype_;
  ModelConfig config_;
  mutable std::optional<perfmodel::KernelModel> perf_model_;
  mutable std::mutex perf_mutex_;
};

}  // namespace gsx::core
