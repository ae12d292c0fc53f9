// Kernel performance model and the Algorithm-2 band auto-tuner.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cholesky/factorize.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "perfmodel/band_tuner.hpp"
#include "perfmodel/kernel_model.hpp"

namespace gsx::perfmodel {
namespace {

TEST(FlopModels, DenseCubicTlrQuadraticInTs) {
  EXPECT_DOUBLE_EQ(dense_gemm_flops(100), 2e6);
  EXPECT_GT(tlr_gemm_flops(100, 10), 0.0);
  // Dense grows cubically with ts, TLR linearly (fixed rank, ts >> k so the
  // k^3 recompression term is negligible).
  EXPECT_NEAR(dense_gemm_flops(200) / dense_gemm_flops(100), 8.0, 1e-12);
  const double r = tlr_gemm_flops(2000, 10) / tlr_gemm_flops(1000, 10);
  EXPECT_GT(r, 1.8);
  EXPECT_LT(r, 2.2);
}

TEST(TheoreticalModel, PrecisionSpeedups) {
  const KernelModel m = KernelModel::theoretical(128);
  EXPECT_GT(m.dense_gemm_seconds(Precision::FP64), m.dense_gemm_seconds(Precision::FP32));
  EXPECT_GT(m.dense_gemm_seconds(Precision::FP32), m.dense_gemm_seconds(Precision::FP16));
  EXPECT_NEAR(m.dense_gemm_seconds(Precision::FP64) / m.dense_gemm_seconds(Precision::FP32),
              2.0, 1e-9);
}

TEST(TheoreticalModel, TlrCostIncreasesWithRank) {
  const KernelModel m = KernelModel::theoretical(128);
  double prev = 0.0;
  for (std::size_t k : {1u, 4u, 16u, 64u, 128u}) {
    const double t = m.tlr_gemm_seconds(k);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_DOUBLE_EQ(m.tlr_gemm_seconds(0), 0.0);
}

TEST(TheoreticalModel, CrossoverExistsAndIsInterior) {
  // Paper Fig. 5: TLR wins at low rank, loses past a crossover (~200 at
  // ts=800 on A64FX). The flop model must reproduce an interior crossover.
  const KernelModel m = KernelModel::theoretical(256);
  const std::size_t cross = m.crossover_rank();
  EXPECT_GT(cross, 8u);
  EXPECT_LT(cross, 256u);
  EXPECT_LT(m.tlr_gemm_seconds(cross / 2), m.dense_gemm_seconds(Precision::FP64));
  EXPECT_GE(m.tlr_gemm_seconds(cross), m.dense_gemm_seconds(Precision::FP64));
}

TEST(CalibratedModel, MeasuresRealKernels) {
  const std::vector<std::size_t> ranks = {2, 8, 16};
  const KernelModel m = KernelModel::calibrate(64, ranks);
  EXPECT_GT(m.dense_gemm_seconds(Precision::FP64), 0.0);
  EXPECT_GT(m.dense_gemm_seconds(Precision::FP32), 0.0);
  EXPECT_GT(m.dense_gemm_seconds(Precision::FP16), 0.0);
  ASSERT_EQ(m.samples().size(), 3u);
  for (const auto& s : m.samples()) EXPECT_GT(s.seconds, 0.0);
  // Interpolation stays within the sampled bracket.
  const double t4 = m.tlr_gemm_seconds(4);
  EXPECT_GE(t4, m.samples()[0].seconds * 0.3);
  EXPECT_LE(t4, m.samples()[2].seconds * 3.0);
}

TEST(CalibratedModel, RejectsBadInputs) {
  const std::vector<std::size_t> empty;
  EXPECT_THROW(KernelModel::calibrate(64, empty), InvalidArgument);
  const std::vector<std::size_t> toobig = {100};
  EXPECT_THROW(KernelModel::calibrate(64, toobig), InvalidArgument);
}

/// Matérn matrix compressed with band 1 for the tuner.
tile::SymTileMatrix compressed_matern(std::size_t n, std::size_t ts, double range) {
  Rng rng(3);
  auto locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, range, 0.5, 1e-6);
  tile::SymTileMatrix a(n, ts);
  geostat::fill_covariance_tiles(a, model, locs, 1);
  cholesky::TlrCompressOptions copt;
  copt.band_size = 1;
  copt.max_rank = ts;  // keep everything LR so the tuner sees true ranks
  copt.lr_fp32 = false;
  cholesky::compress_offband(a, copt, 1);
  return a;
}

TEST(BandTuner, ProducesValidBand) {
  const auto a = compressed_matern(192, 32, 0.1);
  const KernelModel m = KernelModel::theoretical(32);
  const BandDecision d = tune_band_size(a, m, 1.0);
  EXPECT_GE(d.band_size_dense, 1u);
  EXPECT_LE(d.band_size_dense, a.nt());
  EXPECT_EQ(d.dense_seconds.size(), a.nt() - 1);  // one entry per sub-diagonal
  EXPECT_EQ(d.tlr_seconds.size(), a.nt() - 1);
}

/// A matrix whose sub-diagonal d holds FP64 low-rank tiles of rank
/// ranks[d - 1]; the cost model reads nothing but those ranks.
tile::SymTileMatrix ranked_matrix(std::size_t ts, const std::vector<std::size_t>& ranks) {
  const std::size_t nt = ranks.size() + 1;
  tile::SymTileMatrix a(nt * ts, ts);
  for (std::size_t j = 0; j < nt; ++j) {
    a.at(j, j) = tile::Tile::dense(la::Matrix<double>(ts, ts));
    for (std::size_t i = j + 1; i < nt; ++i) {
      const std::size_t k = ranks[i - j - 1];
      a.at(i, j) = tile::Tile::lowrank(la::Matrix<double>(ts, k), la::Matrix<double>(ts, k));
    }
  }
  return a;
}

TEST(BandTuner, InwardWalkStopsAtOutermostDenseWin) {
  constexpr std::size_t ts = 32;
  const KernelModel m = KernelModel::theoretical(ts);
  // Low-rank tiles run dense at FP32: rank 1 updates beat that, full rank
  // does not.
  constexpr std::size_t lo = 1, hi = ts;
  ASSERT_LT(m.tlr_gemm_seconds(lo), m.dense_gemm_seconds(Precision::FP32));
  ASSERT_GT(m.tlr_gemm_seconds(hi), m.dense_gemm_seconds(Precision::FP32));

  // Winners along sub-diagonals 1..6: dense, dense, low rank, dense, low
  // rank, low rank. The band ends at the outermost dense win, sub-diagonal 4.
  const auto a = ranked_matrix(ts, {hi, hi, lo, hi, lo, lo});
  const BandDecision d = tune_band_size(a, m, 1.0);
  EXPECT_EQ(d.band_size_dense, 5u);
  ASSERT_EQ(d.dense_seconds.size(), a.nt() - 1);
  ASSERT_EQ(d.tlr_seconds.size(), a.nt() - 1);
  for (std::size_t s = 1; s < a.nt(); ++s) {
    double dense = 0.0, tlr = 0.0;
    EXPECT_EQ(dense_wins(a, m, s, 1.0, &dense, &tlr), s == 1 || s == 2 || s == 4) << s;
    EXPECT_EQ(d.dense_seconds[s - 1], dense) << s;
    EXPECT_EQ(d.tlr_seconds[s - 1], tlr) << s;
  }

  EXPECT_EQ(tune_band_size(ranked_matrix(ts, {lo, lo, lo, lo}), m, 1.0).band_size_dense, 1u);
  EXPECT_EQ(tune_band_size(ranked_matrix(ts, {hi, hi, hi, hi}), m, 1.0).band_size_dense, 5u);
  const BandDecision single = tune_band_size(ranked_matrix(ts, {}), m, 1.0);
  EXPECT_EQ(single.band_size_dense, 1u);
  EXPECT_TRUE(single.dense_seconds.empty());

  EXPECT_THROW((void)dense_wins(a, m, 1, std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
}

TEST(BandTuner, StrongerCorrelationWidensTheBand) {
  const auto weak = compressed_matern(256, 32, 0.02);
  const auto strong = compressed_matern(256, 32, 0.4);
  const KernelModel m = KernelModel::theoretical(32);
  const BandDecision dw = tune_band_size(weak, m, 1.0);
  const BandDecision ds = tune_band_size(strong, m, 1.0);
  EXPECT_LE(dw.band_size_dense, ds.band_size_dense)
      << "higher ranks near the diagonal must keep more sub-diagonals dense";
}

TEST(BandTuner, FluctuationFactorWidensBand) {
  const auto a = compressed_matern(256, 32, 0.1);
  const KernelModel m = KernelModel::theoretical(32);
  const BandDecision tight = tune_band_size(a, m, 1.0);
  const BandDecision loose = tune_band_size(a, m, 4.0);
  EXPECT_LE(tight.band_size_dense, loose.band_size_dense);
}

TEST(SubdiagonalCost, DenseCostIndependentOfRank) {
  const auto a = compressed_matern(192, 32, 0.05);
  const KernelModel m = KernelModel::theoretical(32);
  double dense1 = 0, tlr1 = 0, dense2 = 0, tlr2 = 0;
  predict_subdiagonal_cost(a, m, 1, dense1, tlr1);
  predict_subdiagonal_cost(a, m, a.nt() - 1, dense2, tlr2);
  EXPECT_GT(dense1, 0.0);
  EXPECT_GT(tlr1, 0.0);
  // The far sub-diagonal has one tile with few updates: much cheaper totals.
  EXPECT_LT(dense2, dense1);
  EXPECT_THROW(predict_subdiagonal_cost(a, m, 0, dense1, tlr1), InvalidArgument);
  EXPECT_THROW(predict_subdiagonal_cost(a, m, a.nt(), dense1, tlr1), InvalidArgument);
}

}  // namespace
}  // namespace gsx::perfmodel
