// Precision-aware tile decisions: band rule and adaptive Frobenius rule.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cholesky/precision_policy.hpp"
#include "la/lapack.hpp"
#include "obs/health.hpp"
#include "tile/tile_codec.hpp"
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

/// One policy application's outcome: every stored tile's encoded bytes,
/// the statistics and the health ledger.
struct Outcome {
  std::vector<std::vector<std::uint8_t>> tiles;
  PolicyStats stats;
  obs::HealthSnapshot health;
};

/// Apply `p` to a fresh copy of `make()`'s matrix with health auditing on,
/// over `workers` threads, or (workers == 0) by the serial loop the policy
/// ran before it decided tiles in parallel: demote_tile tile by tile against
/// the serial global norm.
template <typename Make>
Outcome apply(const Make& make, const PrecisionPolicy& p, std::size_t workers) {
  obs::reset_health();
  obs::set_health_enabled(true);
  tile::SymTileMatrix a = make();
  Outcome o;
  if (workers == 0) {
    o.stats.bytes_before = a.footprint_bytes();
    const double norm = a.frobenius_norm();
    obs::record_bound_context(precision_rule_name(p.rule), p.eps_target, norm, a.nt());
    for (std::size_t j = 0; j < a.nt(); ++j)
      for (std::size_t i = j; i < a.nt(); ++i) switch (demote_tile(a, i, j, norm, p)) {
          case Precision::FP64: ++o.stats.fp64_tiles; break;
          case Precision::FP32: ++o.stats.fp32_tiles; break;
          case Precision::FP16: ++o.stats.fp16_tiles; break;
          case Precision::BF16: ++o.stats.bf16_tiles; break;
        }
    o.stats.bytes_after = a.footprint_bytes();
  } else {
    o.stats = apply_precision_policy(a, p, workers);
  }
  o.health = obs::health_snapshot();
  obs::set_health_enabled(false);
  obs::reset_health();
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i) {
      o.tiles.emplace_back();
      tile::encode_tile(a.at(i, j), o.tiles.back());
    }
  return o;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const Outcome& got, const Outcome& ref, std::size_t workers) {
  EXPECT_TRUE(got.tiles == ref.tiles) << "workers=" << workers;
  EXPECT_EQ(got.stats.fp64_tiles, ref.stats.fp64_tiles);
  EXPECT_EQ(got.stats.fp32_tiles, ref.stats.fp32_tiles);
  EXPECT_EQ(got.stats.fp16_tiles, ref.stats.fp16_tiles);
  EXPECT_EQ(got.stats.bf16_tiles, ref.stats.bf16_tiles);
  EXPECT_EQ(got.stats.bytes_before, ref.stats.bytes_before);
  EXPECT_EQ(got.stats.bytes_after, ref.stats.bytes_after);
  const obs::BoundAudit& g = got.health.bound;
  const obs::BoundAudit& r = ref.health.bound;
  EXPECT_EQ(g.rule, r.rule);
  EXPECT_EQ(bits(g.global_norm), bits(r.global_norm));
  EXPECT_EQ(g.demoted_tiles, r.demoted_tiles);
  EXPECT_EQ(g.recorded, r.recorded);
  EXPECT_EQ(bits(g.max_budget_ratio), bits(r.max_budget_ratio));
  // sqrt of the ledger's running demotion_sum_sq, which depends on the order
  // the records arrive in.
  EXPECT_EQ(bits(g.observed_total_err), bits(r.observed_total_err)) << "workers=" << workers;
  EXPECT_EQ(bits(g.observed_rel_err), bits(r.observed_rel_err));
  EXPECT_EQ(g.bound_satisfied, r.bound_satisfied);
  ASSERT_EQ(got.health.demotions.size(), ref.health.demotions.size());
  for (std::size_t k = 0; k < ref.health.demotions.size(); ++k) {
    const obs::DemotionRecord& a = got.health.demotions[k];
    const obs::DemotionRecord& b = ref.health.demotions[k];
    EXPECT_TRUE(a.i == b.i && a.j == b.j && a.chosen == b.chosen &&
                bits(a.tile_norm) == bits(b.tile_norm) && bits(a.budget) == bits(b.budget) &&
                bits(a.guaranteed_err) == bits(b.guaranteed_err) &&
                bits(a.observed_err) == bits(b.observed_err))
        << "record " << k << " workers=" << workers;
  }
  ASSERT_EQ(got.health.nonfinite.size(), ref.health.nonfinite.size());
  for (std::size_t k = 0; k < ref.health.nonfinite.size(); ++k) {
    EXPECT_EQ(got.health.nonfinite[k].i, ref.health.nonfinite[k].i);
    EXPECT_EQ(got.health.nonfinite[k].j, ref.health.nonfinite[k].j);
    EXPECT_EQ(got.health.nonfinite[k].count, ref.health.nonfinite[k].count);
  }
}

TEST(ApplyPolicy, ParallelMatchesSerialDemotion) {
  // 13 x 13 tiles with a ragged last one. The Frobenius rule sends tiles to
  // every precision; the band rule also overflows FP16 far from the
  // diagonal, so the ledger gets non-finite records too.
  const auto decaying = [] { return decaying_matrix(200, 16, 0.2); };
  const auto overflowing = [] {
    tile::SymTileMatrix a(200, 16);
    gsx::test::generate(a, [](std::size_t i, std::size_t j) {
      const auto d = static_cast<double>(i >= j ? i - j : j - i);
      return d >= 120 ? 1.0e5 : std::exp(-d / 9.0) + (i == j ? 1.0 : 0.0);
    });
    return a;
  };
  PrecisionPolicy frob;
  frob.rule = PrecisionRule::AdaptiveFrobenius;
  frob.eps_target = 1e-6;
  PrecisionPolicy band;
  band.rule = PrecisionRule::Band;
  band.band = {2, 4};
  const auto frob_ref = apply(decaying, frob, 0);
  EXPECT_GT(frob_ref.stats.fp16_tiles, 0u);
  EXPECT_GT(frob_ref.stats.fp32_tiles, 0u);
  EXPECT_GT(frob_ref.health.demotions.size(), 0u);
  const auto band_ref = apply(overflowing, band, 0);
  EXPECT_GT(band_ref.health.nonfinite.size(), 0u);
  for (std::size_t workers : {1u, 4u}) {
    expect_same(apply(decaying, frob, workers), frob_ref, workers);
    expect_same(apply(overflowing, band, workers), band_ref, workers);
  }
  // The global norm itself does not depend on the worker count.
  const tile::SymTileMatrix a = decaying();
  EXPECT_EQ(bits(a.frobenius_norm(4)), bits(a.frobenius_norm(1)));
}

}  // namespace
}  // namespace gsx::cholesky
