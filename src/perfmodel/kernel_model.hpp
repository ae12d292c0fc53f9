// Performance model for the structure-aware runtime decision (Section VI-B).
//
// The decision "dense or TLR?" for a tile compares the predicted cost of the
// dense GEMM (compute-bound, 2*ts^3 flops) against the TLR GEMM
// (memory-bound, O(ts*k^2) flops depending on the rank k the compression
// tolerance produced). The model is either calibrated by running the actual
// kernels on one core (as the paper does on an A64FX core for Fig. 5) or
// derived from flop counts with fixed rates (deterministic, for tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/precision.hpp"
#include "tlr/compression.hpp"

namespace gsx::perfmodel {

/// Flops of a dense ts x ts GEMM (C -= A B^T).
[[nodiscard]] double dense_gemm_flops(std::size_t ts) noexcept;

/// Flop estimate of one TLR GEMM update (LR product of rank-k operands plus
/// RRQR rounding of the rank-2k accumulation on a ts x ts tile).
[[nodiscard]] double tlr_gemm_flops(std::size_t ts, std::size_t rank) noexcept;

/// One measured point of the TLR GEMM cost curve.
struct RankSample {
  std::size_t rank = 0;
  double seconds = 0.0;
};

class KernelModel {
 public:
  /// Flop-count model with fixed rates (deterministic; default for tests).
  /// `fp64_rate_gflops` is the assumed dense FP64 throughput; FP32 is taken
  /// 2x and FP16-storage 2x again, mirroring SIMD-width scaling.
  static KernelModel theoretical(std::size_t ts, double fp64_rate_gflops = 2.0);

  /// Calibrate by timing the real kernels on this machine: dense GEMM per
  /// precision and the TLR GEMM at each rank in `ranks`. The fourth
  /// argument is unread: low-rank updates have one rounding.
  static KernelModel calibrate(std::size_t ts, std::span<const std::size_t> ranks,
                               std::uint64_t seed = 7,
                               tlr::RoundingMethod = tlr::RoundingMethod::Rrqr);

  [[nodiscard]] std::size_t tile_size() const noexcept { return ts_; }

  /// Predicted seconds of one dense tile GEMM at storage precision `p`.
  [[nodiscard]] double dense_gemm_seconds(Precision p) const;

  /// Predicted seconds of one TLR GEMM update at rank `k` (interpolated
  /// between samples, extrapolated by the flop model beyond them).
  [[nodiscard]] double tlr_gemm_seconds(std::size_t rank) const;

  /// Smallest rank at which the TLR GEMM is no cheaper than the dense FP64
  /// GEMM — the crossover of Fig. 5 (~200 on the paper's A64FX core).
  [[nodiscard]] std::size_t crossover_rank() const;

  [[nodiscard]] const std::vector<RankSample>& samples() const noexcept { return samples_; }

 private:
  std::size_t ts_ = 0;
  double dense_seconds_[kNumPrecisions] = {0, 0, 0};
  std::vector<RankSample> samples_;  // ascending rank
};

}  // namespace gsx::perfmodel
