#include "perfmodel/kernel_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "la/half_blas.hpp"
#include "la/matrix.hpp"
#include "tlr/lr_kernels.hpp"

namespace gsx::perfmodel {

double dense_gemm_flops(std::size_t ts) noexcept {
  const double t = static_cast<double>(ts);
  return 2.0 * t * t * t;
}

double tlr_gemm_flops(std::size_t ts, std::size_t rank) noexcept {
  // LR x LR product (core + one side): ~4*ts*k^2 + RRQR rounding of the
  // stacked rank-2k factors: two tall QRs (~16*ts*k^2) and re-forming U', V'
  // (~8*ts*k^2). The k^3 term was sized for a Jacobi SVD of the 2k x 2k core
  // that the rounding no longer runs; it stays so that the flop model's
  // band decisions keep their values.
  const double t = static_cast<double>(ts);
  const double k = static_cast<double>(rank);
  return 28.0 * t * k * k + 240.0 * k * k * k;
}

KernelModel KernelModel::theoretical(std::size_t ts, double fp64_rate_gflops) {
  GSX_REQUIRE(ts >= 2 && fp64_rate_gflops > 0, "KernelModel: invalid parameters");
  KernelModel m;
  m.ts_ = ts;
  const double rate64 = fp64_rate_gflops * 1e9;  // flops per second
  m.dense_seconds_[static_cast<int>(Precision::FP64)] = dense_gemm_flops(ts) / rate64;
  m.dense_seconds_[static_cast<int>(Precision::FP32)] = dense_gemm_flops(ts) / (2 * rate64);
  m.dense_seconds_[static_cast<int>(Precision::FP16)] = dense_gemm_flops(ts) / (4 * rate64);
  m.dense_seconds_[static_cast<int>(Precision::BF16)] = dense_gemm_flops(ts) / (4 * rate64);
  // TLR kernels (small GEMMs + tall QR) run near the dense flop rate in this
  // implementation; memory-bound effects appear only at large tile sizes.
  const double tlr_rate = 1.0 * rate64;
  for (std::size_t k = 1; k <= ts; k = std::max<std::size_t>(k + 1, k * 5 / 4))
    m.samples_.push_back({k, tlr_gemm_flops(ts, k) / tlr_rate});
  return m;
}

namespace {

/// Seconds of one ts x ts GEMM C -= A B^T at storage scalar T (FP32
/// accumulation for the 16-bit formats), on inputs drawn A(i,j), B(i,j)
/// alternately in column-major order.
template <typename T>
double time_dense_gemm(std::size_t ts, Rng& rng) {
  la::Matrix<T> a(ts, ts), b(ts, ts), c(ts, ts);
  for (std::size_t j = 0; j < ts; ++j)
    for (std::size_t i = 0; i < ts; ++i) {
      a(i, j) = static_cast<T>(rng.normal());
      b(i, j) = static_cast<T>(rng.normal());
    }
  Timer t;
  la::storage_gemm<T>(la::Trans::NoTrans, la::Trans::Trans, la::accum_t<T>(-1), a.cview(),
                      b.cview(), la::accum_t<T>(1), c.view());
  return t.seconds();
}

double time_tlr_gemm(std::size_t ts, std::size_t rank, Rng& rng) {
  // Representative TLR GEMM: rank-k LR x LR product accumulated into a
  // rank-k LR tile with rounding back to rank ~k.
  auto randmat = [&](std::size_t r, std::size_t c) {
    la::Matrix<double> m(r, c);
    for (std::size_t j = 0; j < c; ++j)
      for (std::size_t i = 0; i < r; ++i) m(i, j) = rng.normal();
    return m;
  };
  la::Matrix<double> ua = randmat(ts, rank), va = randmat(ts, rank);
  la::Matrix<double> ub = randmat(ts, rank), vb = randmat(ts, rank);
  la::Matrix<double> uc = randmat(ts, rank), vc = randmat(ts, rank);
  Timer t;
  const tlr::LrProduct p =
      tlr::product_lr_lr(tlr::LrView{ua.cview(), va.cview()},
                         tlr::LrView{ub.cview(), vb.cview()});
  tlr::lr_axpy_rounded(-1.0, p, uc, vc, /*abs_tol=*/1e-8);
  return t.seconds();
}

}  // namespace

KernelModel KernelModel::calibrate(std::size_t ts, std::span<const std::size_t> ranks,
                                   std::uint64_t seed, tlr::RoundingMethod) {
  GSX_REQUIRE(ts >= 2 && !ranks.empty(), "KernelModel::calibrate: invalid inputs");
  KernelModel m;
  m.ts_ = ts;
  Rng rng(seed);
  // Median of three repetitions per point keeps scheduler noise out.
  auto median3 = [](double a, double b, double c) {
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
  };
  for (const Precision p :
       {Precision::FP64, Precision::FP32, Precision::FP16, Precision::BF16})
    m.dense_seconds_[static_cast<int>(p)] = dispatch(p, [&]<typename T>() {
      return median3(time_dense_gemm<T>(ts, rng), time_dense_gemm<T>(ts, rng),
                     time_dense_gemm<T>(ts, rng));
    });
  for (std::size_t k : ranks) {
    GSX_REQUIRE(k >= 1 && k <= ts, "KernelModel::calibrate: rank out of range");
    const double s =
        median3(time_tlr_gemm(ts, k, rng), time_tlr_gemm(ts, k, rng), time_tlr_gemm(ts, k, rng));
    m.samples_.push_back({k, s});
  }
  std::sort(m.samples_.begin(), m.samples_.end(),
            [](const RankSample& a, const RankSample& b) { return a.rank < b.rank; });
  return m;
}

double KernelModel::dense_gemm_seconds(Precision p) const {
  return dense_seconds_[static_cast<int>(p)];
}

double KernelModel::tlr_gemm_seconds(std::size_t rank) const {
  GSX_REQUIRE(!samples_.empty(), "KernelModel: no TLR samples");
  if (rank == 0) return 0.0;
  if (rank <= samples_.front().rank) {
    // Scale down by the flop ratio from the smallest sample.
    const auto& s = samples_.front();
    return s.seconds * tlr_gemm_flops(ts_, rank) / tlr_gemm_flops(ts_, s.rank);
  }
  if (rank >= samples_.back().rank) {
    const auto& s = samples_.back();
    return s.seconds * tlr_gemm_flops(ts_, rank) / tlr_gemm_flops(ts_, s.rank);
  }
  // Linear interpolation between bracketing samples.
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (samples_[i].rank >= rank) {
      const auto& lo = samples_[i - 1];
      const auto& hi = samples_[i];
      const double f = static_cast<double>(rank - lo.rank) /
                       static_cast<double>(hi.rank - lo.rank);
      return lo.seconds + f * (hi.seconds - lo.seconds);
    }
  }
  return samples_.back().seconds;
}

std::size_t KernelModel::crossover_rank() const {
  const double dense = dense_gemm_seconds(Precision::FP64);
  for (std::size_t k = 1; k <= ts_; ++k)
    if (tlr_gemm_seconds(k) >= dense) return k;
  return ts_ + 1;  // TLR always wins up to full rank
}

}  // namespace gsx::perfmodel
