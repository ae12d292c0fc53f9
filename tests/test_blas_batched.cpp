// Batched BLAS entry points: bit-identity against looped per-op calls,
// tune-profile round trips, and the Cholesky DAG's batch wiring.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_solve.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "la/autotune.hpp"
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
  std::vector<Gemm16BatchItem<half>> hi(count);
  std::vector<Gemm16BatchItem<bfloat16>> bi(count);
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

// ----------------------------------------------------------- tune profile

TuneProfile sample_profile() {
  TuneProfile p;
  p.isa = gemm_kernel_isa();
  p.ghz = 2.5;
  for (std::size_t i = 0; i < kNumPrecisions; ++i) {
    const Precision prec = static_cast<Precision>(i);
    p.has[i] = true;
    p.config[i] = gemm_default_config(prec);
    p.config[i].blk.mc = 64 + 32 * i;
    p.gflops[i] = 10.0 + static_cast<double>(i);
  }
  return p;
}

TEST(TuneProfile, JsonRoundTripPreservesEveryField) {
  const TuneProfile p = sample_profile();
  const std::string json = profile_to_json(p);
  EXPECT_NE(json.find(kTuneProfileSchema), std::string::npos);
  TuneProfile q;
  std::string err;
  ASSERT_TRUE(profile_from_json(json, &q, &err)) << err;
  EXPECT_EQ(q.isa, p.isa);
  EXPECT_DOUBLE_EQ(q.ghz, p.ghz);
  for (std::size_t i = 0; i < kNumPrecisions; ++i) {
    ASSERT_TRUE(q.has[i]);
    EXPECT_EQ(q.config[i].blk.mc, p.config[i].blk.mc);
    EXPECT_EQ(q.config[i].blk.kc, p.config[i].blk.kc);
    EXPECT_EQ(q.config[i].blk.nc, p.config[i].blk.nc);
    EXPECT_EQ(q.config[i].mr, p.config[i].mr);
    EXPECT_EQ(q.config[i].nr, p.config[i].nr);
    EXPECT_DOUBLE_EQ(q.gflops[i], p.gflops[i]);
  }
}

TEST(TuneProfile, CorruptJsonIsRejectedNotCrashed) {
  TuneProfile q;
  std::string err;
  EXPECT_FALSE(profile_from_json("{ definitely not json", &q, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(profile_from_json("{}", &q, &err));
  EXPECT_FALSE(profile_from_json(R"({"schema":"gsx-tune-v99","isa":"avx512"})", &q,
                                 &err));
  // Negative / non-integer blocking values must be rejected.
  EXPECT_FALSE(profile_from_json(
      R"({"schema":"gsx-tune-v1","isa":"avx512","ghz":2.0,)"
      R"("configs":{"FP64":{"mc":-4,"kc":256,"nc":4096,"mr":0,"nr":0,"gflops":1.0}}})",
      &q, &err));
}

TEST(TuneProfile, MismatchedIsaFallsBackGracefully) {
  TuneProfile p = sample_profile();
  p.isa = "not-a-real-isa";
  std::string err;
  EXPECT_FALSE(apply_profile(p, &err));
  EXPECT_NE(err.find("not-a-real-isa"), std::string::npos);
  // Nothing was applied: the active configs still validate as installable.
  for (std::size_t i = 0; i < kNumPrecisions; ++i) {
    const KernelConfig active = gemm_kernel_config(static_cast<Precision>(i));
    EXPECT_GT(active.blk.mc, 0u);
  }
}

TEST(TuneProfile, FileRoundTripAndMissingFile) {
  const TuneProfile p = sample_profile();
  const std::string path = ::testing::TempDir() + "gsx-tune-test.json";
  std::string err;
  ASSERT_TRUE(save_profile(p, path, &err)) << err;
  TuneProfile q;
  ASSERT_TRUE(load_profile(path, &q, &err)) << err;
  EXPECT_EQ(q.isa, p.isa);
  EXPECT_FALSE(load_profile(path + ".does-not-exist", &q, &err));
  std::remove(path.c_str());
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
