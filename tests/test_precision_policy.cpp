// Precision-aware tile decisions: band rule and adaptive Frobenius rule.
#include <gtest/gtest.h>

#include <cmath>

#include "cholesky/precision_policy.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx::cholesky {
namespace {

TEST(BandRule, DistanceThresholds) {
  const BandConfig cfg{2, 5};
  EXPECT_EQ(band_precision(3, 3, cfg, true), Precision::FP64);   // diagonal
  EXPECT_EQ(band_precision(4, 3, cfg, true), Precision::FP64);   // dist 1
  EXPECT_EQ(band_precision(5, 3, cfg, true), Precision::FP32);   // dist 2
  EXPECT_EQ(band_precision(7, 3, cfg, true), Precision::FP32);   // dist 4
  EXPECT_EQ(band_precision(8, 3, cfg, true), Precision::FP16);   // dist 5
  EXPECT_EQ(band_precision(20, 3, cfg, true), Precision::FP16);
}

TEST(BandRule, SymmetricInIndices) {
  const BandConfig cfg{1, 3};
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_EQ(band_precision(i, j, cfg, true), band_precision(j, i, cfg, true));
}

TEST(BandRule, Fp16DisabledFallsBackToFp32) {
  const BandConfig cfg{1, 2};
  EXPECT_EQ(band_precision(9, 0, cfg, false), Precision::FP32);
}

TEST(BandRule, Bf16IsThe16BitTierWhenFp16Disallowed) {
  const BandConfig cfg{1, 2};
  // FP16 preferred (smaller roundoff) when both 16-bit formats are allowed.
  EXPECT_EQ(band_precision(9, 0, cfg, true, true), Precision::FP16);
  EXPECT_EQ(band_precision(9, 0, cfg, false, true), Precision::BF16);
  // Inside the FP32 band the 16-bit flags are irrelevant.
  EXPECT_EQ(band_precision(1, 0, cfg, false, true), Precision::FP32);
  // Neither 16-bit format allowed: stay FP32.
  EXPECT_EQ(band_precision(9, 0, cfg, false, false), Precision::FP32);
}

TEST(BandRule, PolicyAppliesBf16Band) {
  tile::SymTileMatrix a(64, 16);
  gsx::test::generate(a, [](std::size_t i, std::size_t j) { return i == j ? 4.0 : 0.25; }, 1);
  PrecisionPolicy policy;
  policy.rule = PrecisionRule::Band;
  policy.band = {1, 2};
  policy.allow_fp16 = false;
  policy.allow_bf16 = true;
  const PolicyStats stats = apply_precision_policy(a, policy);
  EXPECT_EQ(stats.fp16_tiles, 0u);
  EXPECT_GT(stats.bf16_tiles, 0u);
  EXPECT_EQ(a.at(3, 0).precision(), Precision::BF16);
  EXPECT_EQ(a.at(1, 0).precision(), Precision::FP32);
}

TEST(FrobeniusRule, ThresholdsOrdered) {
  // A tile must need a *smaller* norm to qualify for FP16 than for FP32.
  const double global = 100.0;
  const std::size_t nt = 10;
  const double eps = 1e-8;
  const double t32 = eps * global / (nt * unit_roundoff(Precision::FP32));
  const double t16 = eps * global / (nt * unit_roundoff(Precision::FP16));
  EXPECT_LT(t16, t32);
  // Just below each threshold -> that precision.
  EXPECT_EQ(frobenius_precision(t16 * 0.99, global, nt, eps, true), Precision::FP16);
  EXPECT_EQ(frobenius_precision(t16 * 1.01, global, nt, eps, true), Precision::FP32);
  EXPECT_EQ(frobenius_precision(t32 * 0.99, global, nt, eps, true), Precision::FP32);
  EXPECT_EQ(frobenius_precision(t32 * 1.01, global, nt, eps, true), Precision::FP64);
}

TEST(FrobeniusRule, Fp16DisabledNeverReturnsFp16) {
  EXPECT_EQ(frobenius_precision(1e-30, 1.0, 4, 1e-8, false), Precision::FP32);
  EXPECT_EQ(frobenius_precision(1e-30, 1.0, 4, 1e-8, true), Precision::FP16);
}

TEST(FrobeniusRule, TighterEpsKeepsMorePrecision) {
  const double norm = 1e-6, global = 1.0;
  const Precision loose = frobenius_precision(norm, global, 8, 1e-2, true);
  const Precision tight = frobenius_precision(norm, global, 8, 1e-12, true);
  EXPECT_TRUE(at_least(tight, loose));
}

/// Exponentially decaying symmetric matrix: realistic norm profile.
tile::SymTileMatrix decaying_matrix(std::size_t n, std::size_t ts, double rate) {
  tile::SymTileMatrix a(n, ts);
  gsx::test::generate(a,
      [&](std::size_t i, std::size_t j) {
        const double d = static_cast<double>(i > j ? i - j : j - i);
        return std::exp(-rate * d) + (i == j ? 1.0 : 0.0);
      },
      1);
  return a;
}

TEST(ApplyPolicy, AllFp64LeavesEverythingAlone) {
  auto a = decaying_matrix(48, 8, 0.5);
  PrecisionPolicy p;
  p.rule = PrecisionRule::AllFP64;
  const PolicyStats stats = apply_precision_policy(a, p);
  EXPECT_EQ(stats.fp64_tiles, 21u);  // 6*7/2 stored tiles
  EXPECT_EQ(stats.fp32_tiles, 0u);
  EXPECT_EQ(stats.bytes_before, stats.bytes_after);
}

TEST(ApplyPolicy, BandRuleSetsExpectedPattern) {
  auto a = decaying_matrix(48, 8, 0.5);
  PrecisionPolicy p;
  p.rule = PrecisionRule::Band;
  p.band = BandConfig{1, 3};
  const PolicyStats stats = apply_precision_policy(a, p);
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i) {
      const std::size_t d = i - j;
      const Precision expect =
          (d == 0) ? Precision::FP64 : (d < 3 ? Precision::FP32 : Precision::FP16);
      EXPECT_EQ(a.at(i, j).precision(), expect) << i << "," << j;
    }
  EXPECT_LT(stats.bytes_after, stats.bytes_before);
}

TEST(ApplyPolicy, FrobeniusGlobalErrorBoundHolds) {
  // The paper's guarantee: ||A^ - A||_F <= eps ||A||_F after demotion.
  auto a = decaying_matrix(64, 8, 1.2);
  const auto before = a.to_full();
  const double norm = la::norm_frobenius<double>(before.cview());

  for (double eps : {1e-4, 1e-8}) {
    auto b = decaying_matrix(64, 8, 1.2);
    PrecisionPolicy p;
    p.rule = PrecisionRule::AdaptiveFrobenius;
    p.eps_target = eps;
    apply_precision_policy(b, p);
    const auto after = b.to_full();
    double diff = 0.0;
    for (std::size_t j = 0; j < 64; ++j)
      for (std::size_t i = 0; i < 64; ++i) {
        const double d = after(i, j) - before(i, j);
        diff += d * d;
      }
    EXPECT_LE(std::sqrt(diff), eps * norm * 1.0001) << "eps = " << eps;
  }
}

TEST(ApplyPolicy, FasterDecayDemotesMoreTiles) {
  auto slow = decaying_matrix(96, 8, 0.2);
  auto fast = decaying_matrix(96, 8, 2.0);
  PrecisionPolicy p;
  p.rule = PrecisionRule::AdaptiveFrobenius;
  p.eps_target = 1e-6;
  const PolicyStats s1 = apply_precision_policy(slow, p);
  const PolicyStats s2 = apply_precision_policy(fast, p);
  EXPECT_GE(s2.fp16_tiles + s2.fp32_tiles, s1.fp16_tiles + s1.fp32_tiles)
      << "weakly correlated matrices must yield more low-precision tiles";
  EXPECT_LE(s2.bytes_after, s1.bytes_after);
}

TEST(ApplyPolicy, DiagonalAlwaysFp64) {
  auto a = decaying_matrix(40, 8, 5.0);
  PrecisionPolicy p;
  p.rule = PrecisionRule::AdaptiveFrobenius;
  p.eps_target = 1e-1;  // aggressive: everything off-diagonal demotes
  apply_precision_policy(a, p);
  for (std::size_t k = 0; k < a.nt(); ++k)
    EXPECT_EQ(a.at(k, k).precision(), Precision::FP64);
}

TEST(ApplyPolicy, StatsCountsAddUp) {
  auto a = decaying_matrix(80, 16, 0.8);
  PrecisionPolicy p;
  p.rule = PrecisionRule::AdaptiveFrobenius;
  p.eps_target = 1e-8;
  const PolicyStats stats = apply_precision_policy(a, p);
  EXPECT_EQ(stats.fp64_tiles + stats.fp32_tiles + stats.fp16_tiles,
            a.nt() * (a.nt() + 1) / 2);
  EXPECT_EQ(stats.bytes_after, a.footprint_bytes());
}

}  // namespace
}  // namespace gsx::cholesky
