// Mixed-precision dense tile Cholesky against the LAPACK-style reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_batch.hpp"
#include "cholesky/tile_solve.hpp"
#include "la/lapack.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "test_utils.hpp"

namespace gsx::cholesky {
namespace {

using gsx::test::reconstruct_lower;
using gsx::test::rel_frobenius_diff;

/// SPD covariance-like test matrix with exponential decay.
tile::SymTileMatrix make_spd_tiles(std::size_t n, std::size_t ts, double rate) {
  tile::SymTileMatrix a(n, ts);
  gsx::test::generate(a,
      [&](std::size_t i, std::size_t j) {
        const double d = static_cast<double>(i > j ? i - j : j - i);
        return std::exp(-rate * d) + (i == j ? 0.5 : 0.0);
      },
      1);
  return a;
}

la::Matrix<double> reference_chol(const tile::SymTileMatrix& a) {
  la::Matrix<double> full = a.to_full();
  EXPECT_EQ(la::potrf(full.view()), 0);
  for (std::size_t j = 0; j < full.cols(); ++j)
    for (std::size_t i = 0; i < j; ++i) full(i, j) = 0.0;
  return full;
}

struct DenseCase {
  std::size_t n, ts, workers;
};

class DenseCholesky : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseCholesky, Fp64MatchesLapackReference) {
  const auto [n, ts, workers] = GetParam();
  auto a = make_spd_tiles(n, ts, 0.3);
  const la::Matrix<double> expect = reference_chol(a);

  FactorOptions opts;
  opts.workers = workers;
  const FactorReport rep = tile_cholesky_dense(a, opts);
  ASSERT_EQ(rep.info, 0);
  EXPECT_LT(rel_frobenius_diff(reconstruct_lower(a), expect), 1e-12);

  // Task count: nt potrf + nt(nt-1)/2 trsm + nt(nt-1)/2 syrk + one gemm
  // task per <= kGemmBatchMax chunk of each (k, n) panel column.
  const std::size_t nt = a.nt();
  std::size_t expected_tasks = nt + nt * (nt - 1) / 2 + nt * (nt - 1) / 2;
  for (std::size_t k = 0; k < nt; ++k)
    for (std::size_t n = k + 1; n < nt; ++n)
      expected_tasks += (nt - n - 1 + kGemmBatchMax - 1) / kGemmBatchMax;
  EXPECT_EQ(rep.graph.num_tasks, expected_tasks);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseCholesky,
                         ::testing::Values(DenseCase{16, 16, 1},   // single tile
                                           DenseCase{32, 8, 1},
                                           DenseCase{45, 8, 1},    // ragged edge
                                           DenseCase{64, 16, 4},   // parallel
                                           DenseCase{96, 16, 8},
                                           DenseCase{33, 32, 2})); // 2 tiles ragged

TEST(DenseCholesky, ParallelMatchesSequentialExactly) {
  auto a1 = make_spd_tiles(80, 16, 0.4);
  auto a2 = make_spd_tiles(80, 16, 0.4);
  FactorOptions seq, par;
  seq.workers = 1;
  par.workers = 8;
  ASSERT_EQ(tile_cholesky_dense(a1, seq).info, 0);
  ASSERT_EQ(tile_cholesky_dense(a2, par).info, 0);
  // FP64 tile kernels are deterministic: results must agree bit-for-bit.
  EXPECT_EQ(rel_frobenius_diff(reconstruct_lower(a1), reconstruct_lower(a2)), 0.0);
}

TEST(DenseCholesky, MixedPrecisionBandStaysAccurate) {
  auto a = make_spd_tiles(96, 16, 0.8);
  const la::Matrix<double> expect = reference_chol(a);

  PrecisionPolicy p;
  p.rule = PrecisionRule::Band;
  p.band = BandConfig{2, 4};
  apply_precision_policy(a, p);

  FactorOptions opts;
  opts.workers = 4;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  // FP32/FP16 off-band tiles: accuracy driven by the demoted storage.
  EXPECT_LT(rel_frobenius_diff(reconstruct_lower(a), expect), 5e-3);
}

TEST(DenseCholesky, AdaptivePrecisionTracksEpsTarget) {
  double prev_err = -1.0;
  for (double eps : {1e-2, 1e-6, 1e-12}) {
    auto a = make_spd_tiles(96, 16, 1.0);
    const la::Matrix<double> expect = reference_chol(a);
    PrecisionPolicy p;
    p.rule = PrecisionRule::AdaptiveFrobenius;
    p.eps_target = eps;
    apply_precision_policy(a, p);
    FactorOptions opts;
    ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
    const double err = rel_frobenius_diff(reconstruct_lower(a), expect);
    if (prev_err >= 0.0) {
      EXPECT_LE(err, prev_err * 1.5 + 1e-15) << "tighter eps must not lose accuracy";
    }
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-11) << "eps=1e-12 keeps everything FP64";
}

TEST(DenseCholesky, TilePrecisionPreservedThroughFactorization) {
  auto a = make_spd_tiles(64, 16, 1.5);
  PrecisionPolicy p;
  p.rule = PrecisionRule::Band;
  p.band = BandConfig{1, 2};
  apply_precision_policy(a, p);
  std::vector<Precision> before;
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i) before.push_back(a.at(i, j).precision());
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  std::size_t idx = 0;
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i)
      EXPECT_EQ(a.at(i, j).precision(), before[idx++]) << "storage precision is sticky";
}

TEST(DenseCholesky, NonSpdReportsPivot) {
  tile::SymTileMatrix a(32, 8);
  gsx::test::generate(a,
      [](std::size_t i, std::size_t j) {
        if (i != j) return 0.01;
        return (i == 20) ? -5.0 : 1.0;  // negative pivot in tile 2
      },
      1);
  FactorOptions opts;
  const FactorReport rep = tile_cholesky_dense(a, opts);
  EXPECT_NE(rep.info, 0);
  EXPECT_GT(rep.info, 16);  // failure after the first two tiles
  EXPECT_LE(rep.info, 24);
}

TEST(DenseCholesky, RejectsLowRankTileBeforeFactoring) {
  auto a = make_spd_tiles(48, 16, 0.6);
  const la::Matrix<double> before = a.at(0, 0).to_dense64();
  la::Matrix<double> u(16, 1), v(16, 1);
  a.at(2, 0) = tile::Tile::lowrank(std::move(u), std::move(v));
  FactorOptions opts;
  EXPECT_THROW((void)tile_cholesky_dense(a, opts), InvalidArgument);
  EXPECT_EQ(rel_frobenius_diff(a.at(0, 0).to_dense64(), before), 0.0)
      << "the check runs before any task touches a tile";
}

TEST(DenseCholesky, ProfiledRunRecordsEveryTaskInsideFactorizePhase) {
  auto a = make_spd_tiles(512, 64, 0.3);
  FactorOptions opts;
  opts.workers = 2;
  obs::reset_all();
  obs::set_enabled(true);
  const FactorReport rep = tile_cholesky_dense(a, opts);
  obs::set_enabled(false);
  const std::uint64_t factorize_phases = obs::phase_histogram(obs::Phase::Factorize).count();
  obs::reset_all();
  ASSERT_EQ(rep.info, 0);
  // profile.json's phase total counts the run in every build.
  EXPECT_EQ(factorize_phases, 1u);

  // The profiled run's trace.json: its factorize phase is the last one on
  // the pipeline row, its tasks the slices of the latest generation. A
  // GSX_TELEMETRY=OFF build records neither, so its trace has no phase and
  // no task slice.
  const obs::ExecutionHistory h =
      obs::build_history(obs::FlightRecorder::instance().snapshot());
  const std::vector<std::string> lines = test::flight_trace_lines();
  if (!test::kFlightRecords) {
    EXPECT_TRUE(h.graphs.empty());
    for (const std::string& line : lines) {
      EXPECT_EQ(line.find("\"cat\": \"phase\""), std::string::npos) << line;
      EXPECT_EQ(line.find("\"cat\": \"task\""), std::string::npos) << line;
    }
    return;
  }
  ASSERT_FALSE(h.graphs.empty());
  const std::uint64_t gen = h.graphs.back().generation;
  double phase_ts = std::nan("");
  double phase_end = std::nan("");
  for (const std::string& line : lines)
    if (line.find("\"name\": \"factorize\", \"cat\": \"phase\"") != std::string::npos &&
        line.find("\"tid\": 999}") != std::string::npos) {
      phase_ts = test::trace_number(line, "\"ts\": ");
      phase_end = phase_ts + test::trace_number(line, "\"dur\": ");
    }
  ASSERT_FALSE(std::isnan(phase_ts)) << "no factorize phase on the pipeline row";
  constexpr double kRounding = 0.002;  // microseconds, 3 decimals written
  std::size_t tasks = 0;
  for (const std::string& line : lines) {
    if (!test::is_task_slice(line, gen)) continue;
    ++tasks;
    EXPECT_NE(line.find("\"precision\": \""), std::string::npos) << line;
    const double ts = test::trace_number(line, "\"ts\": ");
    EXPECT_GE(ts, phase_ts - kRounding) << line;
    EXPECT_LE(ts + test::trace_number(line, "\"dur\": "), phase_end + kRounding) << line;
  }
  EXPECT_EQ(tasks, rep.graph.num_tasks);
}

TEST(DenseCholesky, LogdetMatchesReference) {
  auto a = make_spd_tiles(48, 16, 0.6);
  const la::Matrix<double> ref = reference_chol(a);
  double expect = 0.0;
  for (std::size_t i = 0; i < 48; ++i) expect += 2.0 * std::log(ref(i, i));
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  EXPECT_NEAR(tile_logdet(a), expect, 1e-9);
}

}  // namespace
}  // namespace gsx::cholesky
