// bfloat16 storage type, SBGEMM kernels, and the BF16-extended adaptive
// precision rule (the paper's Section VII-A outlook).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cholesky/factorize.hpp"
#include "cholesky/precision_policy.hpp"
#include "cholesky/tile_solve.hpp"
#include "common/bfloat16.hpp"
#include "la/convert.hpp"
#include "la/half_blas.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"
#include "tile/tile.hpp"

namespace gsx {
namespace {

using gsx::test::random_matrix;
using gsx::test::rel_frobenius_diff;

TEST(Bfloat16, KnownBitPatterns) {
  EXPECT_EQ(bfloat16(0.0f).bits(), 0x0000u);
  EXPECT_EQ(bfloat16(-0.0f).bits(), 0x8000u);
  EXPECT_EQ(bfloat16(1.0f).bits(), 0x3f80u);
  EXPECT_EQ(bfloat16(-2.0f).bits(), 0xc000u);
  EXPECT_EQ(bfloat16(std::numeric_limits<float>::infinity()).bits(), 0x7f80u);
}

TEST(Bfloat16, RoundTripExactForTruncatableValues) {
  // Values whose low 16 mantissa bits are zero survive exactly.
  for (float f : {1.0f, 1.5f, -0.15625f, std::ldexp(1.75f, 60), std::ldexp(-1.25f, -80)}) {
    EXPECT_EQ(static_cast<float>(bfloat16(f)), f) << f;
  }
}

TEST(Bfloat16, RelativeErrorWithinUnitRoundoff) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const float x =
        static_cast<float>(rng.normal() * std::exp(rng.uniform(-20.0, 20.0)));
    if (x == 0.0f) continue;
    const float rt = static_cast<float>(bfloat16(x));
    EXPECT_LE(std::fabs(rt - x), kBf16Eps * std::fabs(x)) << "x = " << x;
  }
}

TEST(Bfloat16, WideExponentRangeBeyondFp16) {
  // The whole point: magnitudes far below FP16's subnormal range survive.
  const float tiny = 1.0e-20f;
  EXPECT_EQ(half(tiny).bits() & 0x7fffu, 0u) << "FP16 flushes to zero";
  EXPECT_NEAR(static_cast<float>(bfloat16(tiny)), tiny, kBf16Eps * tiny);
  const float big = 1.0e20f;
  EXPECT_TRUE(half(big).is_inf());
  EXPECT_NEAR(static_cast<float>(bfloat16(big)), big, kBf16Eps * big);
}

TEST(Bfloat16, NanAndRoundToEven) {
  const bfloat16 nan(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(nan.is_nan());
  EXPECT_FALSE(nan == nan);
  // 1 + 2^-8 is halfway between 1 and the next bf16: rounds to even (1).
  const float halfway = 1.0f + std::ldexp(1.0f, -8);
  EXPECT_EQ(bfloat16(halfway).bits(), bfloat16(1.0f).bits());
}

TEST(Bfloat16, AllBitPatternsRoundTrip) {
  for (std::uint32_t b = 0; b <= 0xffffu; ++b) {
    const bfloat16 v = bfloat16::from_bits(static_cast<std::uint16_t>(b));
    if (v.is_nan()) continue;
    EXPECT_EQ(bfloat16(static_cast<float>(v)).bits(), v.bits()) << b;
  }
}

TEST(Sbgemm, MatchesRoundedOracle) {
  Rng rng(5);
  const auto ad = random_matrix(12, 9, rng);
  const auto bd = random_matrix(11, 9, rng);
  la::Matrix<bfloat16> a(12, 9), b(11, 9);
  la::convert(ad.cview(), a.view());
  la::convert(bd.cview(), b.view());
  la::Matrix<float> c(12, 11);
  la::sbgemm(la::Trans::NoTrans, la::Trans::Trans, 1.0f, a.cview(), b.cview(), 0.0f,
             c.view());
  // Oracle: product of the bf16-rounded inputs in double.
  la::Matrix<double> ar(12, 9), br(11, 9);
  la::convert(a.cview(), ar.view());
  la::convert(b.cview(), br.view());
  for (std::size_t j = 0; j < 11; ++j)
    for (std::size_t i = 0; i < 12; ++i) {
      double s = 0;
      for (std::size_t k = 0; k < 9; ++k) s += ar(i, k) * br(j, k);
      EXPECT_NEAR(static_cast<double>(c(i, j)), s, 1e-4);
    }
}

TEST(Bgemm, StoresRoundedBf16) {
  Rng rng(6);
  const auto ad = random_matrix(8, 8, rng);
  la::Matrix<bfloat16> a(8, 8), c(8, 8);
  la::convert(ad.cview(), a.view());
  la::bgemm(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.cview(), a.cview(), 1.0f,
            c.view());
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 8; ++i) {
      const float v = static_cast<float>(c(i, j));
      EXPECT_EQ(bfloat16(v).bits(), c(i, j).bits());
    }
}

TEST(TileBf16, ConversionAndFootprint) {
  Rng rng(7);
  tile::Tile t = tile::Tile::dense(random_matrix(10, 10, rng));
  const auto before = t.to_dense64();
  t.convert_dense(Precision::BF16);
  EXPECT_EQ(t.precision(), Precision::BF16);
  EXPECT_EQ(t.decision_code(), 'B');
  EXPECT_EQ(t.bytes(), 10u * 10u * 2u);
  EXPECT_LT(rel_frobenius_diff(t.to_dense64(), before), 2.5 * kBf16Eps * 10.0);
  EXPECT_NO_THROW((void)t.matrix<bfloat16>());
  EXPECT_THROW((void)t.matrix<half>(), InvalidArgument);
}

TEST(FrobeniusRuleBf16, RescuesFp16UnderflowTiles) {
  // A tile whose entries sit below FP16's subnormal range: the FP16 bound
  // fails on the subnormal floor, BF16 passes on pure roundoff.
  const double global = 1.0;
  const std::size_t nt = 8;
  const double eps = 1e-8;
  const std::size_t elems = 64 * 64;
  // Pick a tile norm below the FP16 floor term sqrt(elems)*2^-25 / ...
  const double tile_norm = 1e-9;
  const Precision without =
      cholesky::frobenius_precision(tile_norm, global, nt, eps, true, elems, false);
  const Precision with_bf16 =
      cholesky::frobenius_precision(tile_norm, global, nt, eps, true, elems, true);
  EXPECT_NE(without, Precision::FP16) << "FP16 must be ruled out by underflow";
  EXPECT_EQ(with_bf16, Precision::BF16);
}

TEST(FrobeniusRuleBf16, Fp16StillPreferredWhenSafe) {
  // Tile whose budget comfortably exceeds the FP16 subnormal floor term:
  // FP16 wins over BF16 (smaller unit roundoff at equal storage).
  const Precision p =
      cholesky::frobenius_precision(1e-4, 1000.0, 8, 1e-8, true, 64, true);
  EXPECT_EQ(p, Precision::FP16);
}

TEST(CholeskyBf16, FactorizationThroughBf16Tiles) {
  // Force BF16 on far tiles and check the factorization stays accurate at
  // the demoted-storage level.
  tile::SymTileMatrix a(96, 16);
  gsx::test::generate(a,
      [](std::size_t i, std::size_t j) {
        const double d = static_cast<double>(i > j ? i - j : j - i);
        return std::exp(-0.8 * d) + (i == j ? 0.5 : 0.0);
      },
      1);
  la::Matrix<double> ref = a.to_full();
  ASSERT_EQ(la::potrf(ref.view()), 0);
  for (std::size_t j2 = 0; j2 < 96; ++j2)
    for (std::size_t i2 = 0; i2 < j2; ++i2) ref(i2, j2) = 0.0;

  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j + 2; i < a.nt(); ++i)
      a.at(i, j).convert_dense(Precision::BF16);

  cholesky::FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  // BF16 roundoff is ~4e-3: the factor differs at that level, not more.
  EXPECT_LT(rel_frobenius_diff(test::reconstruct_lower(a), ref), 5e-2);
  // Storage stays BF16 through the factorization.
  EXPECT_EQ(a.at(a.nt() - 1, 0).precision(), Precision::BF16);
}

}  // namespace
}  // namespace gsx
