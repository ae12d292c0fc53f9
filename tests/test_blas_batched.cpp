// Batched BLAS entry points: bit-identity against looped per-op calls, and
// the Cholesky DAG's batch wiring.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_solve.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "la/blas.hpp"
#include "la/half_blas.hpp"
#include "la/matrix.hpp"
#include "obs/flops.hpp"
#include "obs/metrics.hpp"
#include "test_utils.hpp"

namespace gsx::la {
namespace {

/// Deterministic pseudo-random fill in [-1, 1] (exactly representable in
/// every storage type after one rounding).
template <typename T>
Matrix<T> filled(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix<T> m(r, c);
  std::uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (std::size_t j = 0; j < c; ++j)
    for (std::size_t i = 0; i < r; ++i) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      const float v = static_cast<float>(static_cast<std::int64_t>(s % 2001) - 1000) / 997.0f;
      m(i, j) = static_cast<T>(v);
    }
  return m;
}

/// Bitwise comparison: the batched entry points promise results identical to
/// looping the per-op kernels, not merely close.
template <typename T>
void expect_bits_equal(const Matrix<T>& a, const Matrix<T>& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  std::size_t bad = 0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      if (std::memcmp(&a(i, j), &b(i, j), sizeof(T)) != 0) ++bad;
  EXPECT_EQ(bad, 0u) << what << ": " << bad << " elements differ bitwise";
}

// ------------------------------------------------------------------- GEMM

template <typename T>
void gemm_batch_vs_looped(Trans ta, Trans tb, std::size_t m, std::size_t n,
                          std::size_t k, T alpha, T beta, bool shared_b) {
  const std::size_t count = 7;
  const std::size_t ar = (ta == Trans::NoTrans) ? m : k;
  const std::size_t ac = (ta == Trans::NoTrans) ? k : m;
  const std::size_t br = (tb == Trans::NoTrans) ? k : n;
  const std::size_t bc = (tb == Trans::NoTrans) ? n : k;
  std::vector<Matrix<T>> as, bs, c_batch, c_loop;
  const Matrix<T> b0 = filled<T>(br, bc, 99);
  for (std::size_t i = 0; i < count; ++i) {
    as.push_back(filled<T>(ar, ac, 2 * i + 1));
    bs.push_back(filled<T>(br, bc, 1000 + i));
    c_batch.push_back(filled<T>(m, n, 500 + i));
    c_loop.push_back(c_batch.back());
  }
  std::vector<GemmBatchItem<T>> items(count);
  for (std::size_t i = 0; i < count; ++i)
    items[i] = {as[i].cview(), shared_b ? b0.cview() : bs[i].cview(),
                c_batch[i].view()};
  gemm_batch<T>(ta, tb, alpha, items.data(), count, beta);
  for (std::size_t i = 0; i < count; ++i)
    gemm<T>(ta, tb, alpha, as[i].cview(), shared_b ? b0.cview() : bs[i].cview(), beta,
            c_loop[i].view());
  for (std::size_t i = 0; i < count; ++i)
    expect_bits_equal(c_batch[i], c_loop[i], "gemm_batch");
}

TEST(GemmBatch, DispatchIsWithinIsaCap) {
  EXPECT_TRUE(test::gemm_isa_within_cap()) << "dispatch picked " << gemm_kernel_isa();
}

TEST(GemmBatch, MatchesLoopedF64AcrossShapesAndScalars) {
  // 8^3 sits below the packed-kernel threshold (reference path); 96^3 above.
  for (const std::size_t s : {std::size_t{8}, std::size_t{96}}) {
    gemm_batch_vs_looped<double>(Trans::NoTrans, Trans::Trans, s, s, s, -1.0, 1.0, true);
    gemm_batch_vs_looped<double>(Trans::NoTrans, Trans::NoTrans, s, s, s, 0.5, 0.0,
                                 false);
    gemm_batch_vs_looped<double>(Trans::Trans, Trans::NoTrans, s, s, s, 1.0, 2.0, false);
  }
  gemm_batch_vs_looped<double>(Trans::NoTrans, Trans::Trans, 64, 48, 32, -1.0, 1.0, true);
  gemm_batch_vs_looped<double>(Trans::NoTrans, Trans::Trans, 96, 96, 96, 0.0, 0.5, true);
}

TEST(GemmBatch, MatchesLoopedF32) {
  gemm_batch_vs_looped<float>(Trans::NoTrans, Trans::Trans, 96, 96, 96, -1.0f, 1.0f,
                              true);
  gemm_batch_vs_looped<float>(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.5f, 0.5f,
                              false);
}

// ----------------------------------------------------------------- 16-bit

TEST(GemmBatch16, ShgemmMatchesLooped) {
  const std::size_t count = 6, m = 48, n = 32, k = 40;
  std::vector<Matrix<half>> ah;
  const Matrix<half> bh = filled<half>(n, k, 7);
  std::vector<Matrix<float>> ch_batch, ch_loop;
  for (std::size_t i = 0; i < count; ++i) {
    ah.push_back(filled<half>(m, k, 20 + i));
    ch_batch.push_back(filled<float>(m, n, 60 + i));
    ch_loop.push_back(ch_batch.back());
  }
  std::vector<GemmBatchItem<half, float>> hi(count);
  for (std::size_t i = 0; i < count; ++i)
    hi[i] = {ah[i].cview(), bh.cview(), ch_batch[i].view()};
  shgemm_batch(Trans::NoTrans, Trans::Trans, -1.0f, hi.data(), count, 1.0f);
  for (std::size_t i = 0; i < count; ++i)
    shgemm(Trans::NoTrans, Trans::Trans, -1.0f, ah[i].cview(), bh.cview(), 1.0f,
           ch_loop[i].view());
  for (std::size_t i = 0; i < count; ++i)
    expect_bits_equal(ch_batch[i], ch_loop[i], "shgemm_batch");
}

TEST(GemmBatch16, HgemmAndBgemmMatchLooped) {
  // 16-bit C store: the batch path converts C through vectorized
  // widen/narrow helpers; results must still round-trip bit-identically
  // against the per-op scalar conversions.
  const std::size_t count = 6, m = 64, n = 64, k = 64;
  std::vector<Matrix<half>> ah, ch_batch, ch_loop;
  std::vector<Matrix<bfloat16>> ab, cb_batch, cb_loop;
  const Matrix<half> bh = filled<half>(n, k, 5);
  const Matrix<bfloat16> bb = filled<bfloat16>(n, k, 5);
  for (std::size_t i = 0; i < count; ++i) {
    ah.push_back(filled<half>(m, k, 30 + i));
    ab.push_back(filled<bfloat16>(m, k, 30 + i));
    ch_batch.push_back(filled<half>(m, n, 90 + i));
    ch_loop.push_back(ch_batch.back());
    cb_batch.push_back(filled<bfloat16>(m, n, 110 + i));
    cb_loop.push_back(cb_batch.back());
  }
  std::vector<GemmBatchItem<half>> hi(count);
  std::vector<GemmBatchItem<bfloat16>> bi(count);
  for (std::size_t i = 0; i < count; ++i) {
    hi[i] = {ah[i].cview(), bh.cview(), ch_batch[i].view()};
    bi[i] = {ab[i].cview(), bb.cview(), cb_batch[i].view()};
  }
  hgemm_batch(Trans::NoTrans, Trans::Trans, -1.0f, hi.data(), count, 1.0f);
  bgemm_batch(Trans::NoTrans, Trans::Trans, -1.0f, bi.data(), count, 1.0f);
  for (std::size_t i = 0; i < count; ++i) {
    hgemm(Trans::NoTrans, Trans::Trans, -1.0f, ah[i].cview(), bh.cview(), 1.0f,
          ch_loop[i].view());
    bgemm(Trans::NoTrans, Trans::Trans, -1.0f, ab[i].cview(), bb.cview(), 1.0f,
          cb_loop[i].view());
  }
  for (std::size_t i = 0; i < count; ++i) {
    expect_bits_equal(ch_batch[i], ch_loop[i], "hgemm_batch");
    expect_bits_equal(cb_batch[i], cb_loop[i], "bgemm_batch");
  }
}

// ------------------------------------------------------- pre-packed A

/// A matrix widened to FP64, as DenseOperand<double> widens a tile.
template <typename TS>
Matrix<double> widened(const Matrix<TS>& a) {
  Matrix<double> w(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) w(i, j) = static_cast<double>(a(i, j));
  return w;
}

/// la::gemm / la::gemm_batch over PackedMatrix operands packed from TS
/// storage against the packed micro-kernel on the widened A, which the
/// pre-packed GEMM runs at every shape (and la::gemm wherever use_packed
/// holds): rows crossing MR and MC = 128, k crossing KC = 256, n from 1 to
/// 13 (below and above use_packed's threshold), single ops and a batch
/// sharing one B.
template <typename TS>
void prepacked_matches_unpacked() {
  const std::size_t count = 3;
  for (const std::size_t m : {33, 88, 128, 200, 256})
    for (const std::size_t k : {64, 128, 300}) {
      std::vector<Matrix<TS>> as;
      std::vector<Matrix<double>> wide;
      std::vector<PackedMatrix> packed;
      for (std::size_t i = 0; i < count; ++i) {
        as.push_back(filled<TS>(m, k, 7 * m + k + i));
        wide.push_back(widened(as.back()));
        packed.emplace_back(as.back().cview());
        ASSERT_EQ(packed.back().rows(), m);
        ASSERT_EQ(packed.back().cols(), k);
        ASSERT_GE(packed.back().bytes(), m * k * sizeof(double));
      }
      for (std::size_t n = 1; n <= 13; ++n) {
        const Matrix<double> b = filled<double>(k, n, 31 * n + k);
        const double alpha = n % 2 ? -1.0 : 0.75;
        const double beta = n % 3 ? 1.0 : 0.5;
        std::vector<Matrix<double>> c_ref, c_packed;
        std::vector<GemmBatchItem<double>> ref_items;
        std::vector<PackedGemmItem> packed_items;
        for (std::size_t i = 0; i < count; ++i) {
          c_ref.push_back(filled<double>(m, n, 3 * n + i));
          c_packed.push_back(c_ref.back());
        }
        for (std::size_t i = 0; i < count; ++i) {
          ref_items.push_back({wide[i].cview(), b.cview(), c_ref[i].view()});
          packed_items.push_back({&packed[i], b.cview(), c_packed[i].view()});
        }
        // Item 0 single, items 1.. batched with the shared B.
        for (std::size_t i = 0; i < count; ++i) la::detail::scale_matrix(beta, c_ref[i].view());
        la::detail::gemm_packed(Trans::NoTrans, Trans::NoTrans, alpha, wide[0].cview(),
                                b.cview(), c_ref[0].view());
        gemm(alpha, packed[0], b.cview(), beta, c_packed[0].view());
        la::detail::gemm_batch_packed(Trans::NoTrans, Trans::NoTrans, alpha,
                                      ref_items.data() + 1, count - 1);
        gemm_batch(alpha, packed_items.data() + 1, count - 1, beta);
        if (la::detail::use_packed(m, n, k)) {
          Matrix<double> c_gemm = filled<double>(m, n, 3 * n);
          gemm<double>(Trans::NoTrans, Trans::NoTrans, alpha, wide[0].cview(), b.cview(), beta,
                       c_gemm.view());
          expect_bits_equal(c_packed[0], c_gemm, "la::gemm");
        }
        const std::string what = "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                                 " n=" + std::to_string(n);
        for (std::size_t i = 0; i < count; ++i)
          expect_bits_equal(c_packed[i], c_ref[i], (what + (i ? " batch" : " single")).c_str());
        if (::testing::Test::HasFailure()) return;
      }
    }
}

TEST(PrepackedGemm, MatchesGemmOnF64Source) { prepacked_matches_unpacked<double>(); }
TEST(PrepackedGemm, MatchesGemmOnWidenedF32Source) { prepacked_matches_unpacked<float>(); }
TEST(PrepackedGemm, MatchesGemmOnWidenedF16Source) { prepacked_matches_unpacked<half>(); }
TEST(PrepackedGemm, MatchesGemmOnWidenedBf16Source) { prepacked_matches_unpacked<bfloat16>(); }

/// Each column of a pre-packed GEMM equals that column computed alone, at
/// every width from 1 to past two register tiles (2 * NR + 1 for every
/// ISA's NR) and on ragged row counts: a kriging point's answer cannot
/// depend on the points solved with it.
template <typename TS>
void prepacked_columns_equal_solo() {
  for (const std::size_t m : {33, 88, 131})
    for (const std::size_t k : {64, 300}) {
      const Matrix<TS> a = filled<TS>(m, k, 5 * m + k);
      const PackedMatrix packed(a.cview());
      for (std::size_t n = 1; n <= 17; ++n) {
        const Matrix<double> b = filled<double>(k, n, 17 * n + k);
        const Matrix<double> c0 = filled<double>(m, n, 9 * n);
        Matrix<double> c = c0;
        gemm(-1.0, packed, b.cview(), 1.0, c.view());
        for (std::size_t j = 0; j < n; ++j) {
          Matrix<double> solo(m, 1);
          for (std::size_t i = 0; i < m; ++i) solo(i, 0) = c0(i, j);
          gemm(-1.0, packed, b.cview().sub(0, j, k, 1), 1.0, solo.view());
          Matrix<double> got(m, 1);
          for (std::size_t i = 0; i < m; ++i) got(i, 0) = c(i, j);
          const std::string what = "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                                   " n=" + std::to_string(n) + " j=" + std::to_string(j);
          expect_bits_equal(got, solo, what.c_str());
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
}

TEST(PrepackedGemm, ColumnsEqualSoloProductsOnF64Source) {
  prepacked_columns_equal_solo<double>();
}
TEST(PrepackedGemm, ColumnsEqualSoloProductsOnWidenedF32Source) {
  prepacked_columns_equal_solo<float>();
}

TEST(PrepackedGemm, RejectsOperandPackedForAnotherIsa) {
  const Matrix<double> a = filled<double>(64, 64, 1);
  const Matrix<double> b = filled<double>(64, 4, 2);
  Matrix<double> c(64, 4);
  const Isa other = active_isa() == Isa::Portable ? Isa::Avx2 : Isa::Portable;
  const PackedMatrix foreign(a.cview(), other);
  EXPECT_EQ(foreign.isa(), other);
  EXPECT_THROW(gemm(1.0, foreign, b.cview(), 0.0, c.view()), InvalidArgument);
  const PackedGemmItem item{&foreign, b.cview(), c.view()};
  EXPECT_THROW(gemm_batch(1.0, &item, 1, 0.0), InvalidArgument);
  const PackedMatrix native(a.cview());
  EXPECT_EQ(native.isa(), active_isa());
  EXPECT_NO_THROW(gemm(1.0, native, b.cview(), 0.0, c.view()));
}

// ------------------------------------------------- Cholesky batch wiring

TEST(CholeskyBatchWiring, DenseTrailingUpdatesRouteThroughGemmBatch) {
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  tile::SymTileMatrix a(256, 32);
  gsx::test::generate(a,
      [](std::size_t i, std::size_t j) {
        const double d = static_cast<double>(i > j ? i - j : j - i);
        return std::exp(-0.3 * d) + (i == j ? 0.5 : 0.0);
      },
      1);
  cholesky::FactorOptions opts;
  const cholesky::FactorReport rep = cholesky::tile_cholesky_dense(a, opts);
  obs::set_enabled(false);
  ASSERT_EQ(rep.info, 0);
  obs::Histogram& h = obs::Registry::instance().histogram("la.batch.gemm.FP64");
  // nt = 8: the k = 0, n = 1 panel column alone is a 6-item batch.
  EXPECT_GT(h.count(), 0u);
  EXPECT_GE(h.max(), 6.0);
}

TEST(CholeskyBatchWiring, TlrTrailingUpdatesRouteThroughGemmBatch) {
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  Rng rng(17);
  std::vector<geostat::Location> locs = geostat::perturbed_grid_locations(256, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, 0.1, 0.5, 1e-6);
  tile::SymTileMatrix a(256, 32);
  geostat::fill_covariance_tiles(a, model, locs, 1);
  cholesky::TlrCompressOptions copt;
  copt.tol = 1e-9;
  copt.band_size = 4;  // dense band wide enough for multi-item dense batches
  copt.lr_fp32 = false;
  const cholesky::CompressStats cs = cholesky::compress_offband(a, copt, 1);
  ASSERT_GT(cs.lr_tiles, 0u) << "setup must produce a genuine TLR matrix";
  cholesky::FactorOptions opts;
  const cholesky::FactorReport rep = cholesky::tile_cholesky_tlr(a, 1e-9, opts);
  obs::set_enabled(false);
  ASSERT_EQ(rep.info, 0);
  obs::Histogram& h = obs::Registry::instance().histogram("la.batch.gemm.FP64");
  EXPECT_GT(h.count(), 0u) << "TLR trailing updates never reached gemm_batch";
  EXPECT_GE(h.max(), 2.0) << "no multi-item batch was formed";
}

}  // namespace
}  // namespace gsx::la
