// Numerical-health observability: structured logger, bound auditing,
// NaN/Inf sentinels, condition estimates, convergence monitoring and
// failure forensics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/health_audit.hpp"
#include "cholesky/precision_policy.hpp"
#include "common/error.hpp"
#include "obs/flops.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "optim/nelder_mead.hpp"
#include "serve/wire.hpp"
#include "tile/sym_tile_matrix.hpp"
#include "test_utils.hpp"

namespace gsx {
namespace {

/// Each test runs with a clean, armed health ledger and the logger off, and
/// restores the process-wide defaults on exit.
class ObsHealth : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_health();
    obs::set_log_level(obs::LogLevel::Off);
    obs::close_log_json();
    obs::set_health_enabled(true);
  }
  void TearDown() override {
    obs::set_health_enabled(false);
    obs::reset_health();
    obs::set_log_level(obs::LogLevel::Off);
    obs::close_log_json();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// Bound-audit arithmetic.

TEST_F(ObsHealth, BoundAuditAggregatesFrobeniusSum) {
  obs::record_bound_context("adaptive-frobenius", 1.0e-8, 100.0, 4);

  obs::DemotionRecord diag;
  diag.i = diag.j = 1;
  diag.chosen = Precision::FP32;
  diag.budget = 2.5e-7;  // eps * ||A||_F / nt
  diag.observed_err = 3.0e-7;
  obs::record_demotion(diag);

  obs::DemotionRecord off;
  off.i = 2;
  off.j = 0;
  off.chosen = Precision::FP16;
  off.budget = 2.5e-7;
  off.observed_err = 4.0e-7;
  obs::record_demotion(off);

  const obs::HealthSnapshot h = obs::health_snapshot();
  EXPECT_EQ(h.bound.rule, "adaptive-frobenius");
  EXPECT_EQ(h.bound.demoted_tiles, 2u);
  ASSERT_EQ(h.demotions.size(), 2u);
  // Off-diagonal errors count twice (the stored triangle mirrors them).
  const double expect_total = std::sqrt(3.0e-7 * 3.0e-7 + 2.0 * 4.0e-7 * 4.0e-7);
  EXPECT_NEAR(h.bound.observed_total_err, expect_total, 1e-18);
  EXPECT_NEAR(h.bound.observed_rel_err, expect_total / 100.0, 1e-20);
  EXPECT_NEAR(h.bound.max_budget_ratio, 4.0e-7 / 2.5e-7, 1e-12);
  EXPECT_TRUE(h.bound.bound_satisfied);  // 6.4e-9 <= 1e-8
}

TEST_F(ObsHealth, BoundAuditDetectsViolation) {
  obs::record_bound_context("adaptive-frobenius", 1.0e-8, 1.0, 2);
  obs::DemotionRecord r;
  r.i = 1;
  r.j = 0;
  r.observed_err = 1.0e-7;  // rel err 1.41e-7 >> eps
  obs::record_demotion(r);
  EXPECT_FALSE(obs::health_snapshot().bound.bound_satisfied);
}

TEST_F(ObsHealth, BoundContextRestartsPerEvaluationSum) {
  obs::record_bound_context("adaptive-frobenius", 1.0e-8, 1.0, 2);
  obs::DemotionRecord r;
  r.i = 1;
  r.j = 0;
  r.observed_err = 1.0e-12;
  obs::record_demotion(r);
  // New evaluation: the Frobenius sum restarts, the demotion counter keeps
  // accumulating across evaluations.
  obs::record_bound_context("adaptive-frobenius", 1.0e-8, 1.0, 2);
  obs::record_demotion(r);
  const obs::HealthSnapshot h = obs::health_snapshot();
  EXPECT_EQ(h.bound.demoted_tiles, 2u);
  EXPECT_EQ(h.demotions.size(), 1u);
  EXPECT_NEAR(h.bound.observed_total_err, std::sqrt(2.0) * 1.0e-12, 1e-24);
}

TEST_F(ObsHealth, DisabledLedgerRecordsNothing) {
  obs::set_health_enabled(false);
  obs::record_bound_context("band", 1e-8, 1.0, 2);
  obs::DemotionRecord r;
  obs::record_demotion(r);
  obs::record_nonfinite("assemble", 0, 0, 3);
  const obs::HealthSnapshot h = obs::health_snapshot();
  EXPECT_EQ(h.bound.demoted_tiles, 0u);
  EXPECT_EQ(obs::nonfinite_total(), 0u);
}

// ---------------------------------------------------------------------------
// Policy application audits the real perturbation.

tile::SymTileMatrix decaying_spd(std::size_t n, std::size_t ts) {
  tile::SymTileMatrix a(n, ts);
  gsx::test::generate(a, [](std::size_t i, std::size_t j) {
    const double d = (i >= j) ? static_cast<double>(i - j) : static_cast<double>(j - i);
    return (i == j ? 2.0 : 1.0) * std::exp(-d / 3.0);
  });
  return a;
}

TEST_F(ObsHealth, AdaptivePolicyKeepsObservedErrorWithinTarget) {
  tile::SymTileMatrix a = decaying_spd(128, 16);
  cholesky::PrecisionPolicy policy;
  policy.rule = cholesky::PrecisionRule::AdaptiveFrobenius;
  policy.eps_target = 1.0e-8;
  cholesky::apply_precision_policy(a, policy);

  const obs::HealthSnapshot h = obs::health_snapshot();
  EXPECT_GT(h.bound.demoted_tiles, 0u) << "expected demotions in a decaying matrix";
  EXPECT_EQ(h.bound.rule, "adaptive-frobenius");
  // The paper's promise, now *measured*: ||A^ - A||_F <= eps ||A||_F.
  EXPECT_LE(h.bound.observed_rel_err, policy.eps_target);
  EXPECT_TRUE(h.bound.bound_satisfied);
  // Every record carries a measured error below its a-priori guarantee.
  for (const obs::DemotionRecord& d : h.demotions)
    EXPECT_LE(d.observed_err, d.guaranteed_err * (1.0 + 1e-12));
}

TEST_F(ObsHealth, ConvertSentinelCatchesFp16Overflow) {
  // Band rule demotes by distance regardless of magnitude: values beyond the
  // FP16 range overflow to Inf on conversion, which the rule cannot see but
  // the sentinel must.
  tile::SymTileMatrix a(64, 16);
  gsx::test::generate(a, [](std::size_t i, std::size_t j) {
    const auto d = static_cast<double>(i >= j ? i - j : j - i);
    if (d >= 32) return 1.0e5;  // far off-band, FP16 target, > 65504
    return i == j ? 2.0e5 : 0.0;
  });
  cholesky::PrecisionPolicy policy;
  policy.rule = cholesky::PrecisionRule::Band;
  policy.band = {1, 2};  // everything past |i-j| >= 2 tiles goes FP16
  policy.allow_fp16 = true;
  cholesky::apply_precision_policy(a, policy);

  EXPECT_GT(obs::nonfinite_total(), 0u);
  const obs::HealthSnapshot h = obs::health_snapshot();
  ASSERT_FALSE(h.nonfinite.empty());
  EXPECT_EQ(h.nonfinite.front().where, "convert");
}

TEST_F(ObsHealth, TileNonfiniteCountScansAllFormats) {
  la::Matrix<double> m(4, 4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 4; ++i) m(i, j) = 1.0;
  m(1, 2) = std::numeric_limits<double>::quiet_NaN();
  m(3, 0) = std::numeric_limits<double>::infinity();
  tile::Tile t = tile::Tile::dense(std::move(m));
  EXPECT_EQ(t.nonfinite_count(), 2u);
  t.convert_dense(Precision::FP32);
  EXPECT_EQ(t.nonfinite_count(), 2u);
}

// ---------------------------------------------------------------------------
// Failure forensics.

TEST_F(ObsHealth, ForensicBundleOnInjectedNonSpd) {
  tile::SymTileMatrix a(64, 16);
  gsx::test::generate(a, [](std::size_t i, std::size_t j) {
    if (i != j) return 0.01;
    return (i == 5) ? -4.0 : 2.0;  // indefinite: one negative diagonal entry
  });
  cholesky::FactorOptions opts;
  opts.rule = cholesky::PrecisionRule::AdaptiveFrobenius;
  const cholesky::FactorReport rep = cholesky::tile_cholesky_dense(a, opts);
  ASSERT_NE(rep.info, 0);
  EXPECT_EQ(rep.failed_tile, 0);  // entry 5 lives in diagonal tile 0
  EXPECT_EQ(rep.info, 6);         // 1-based global pivot

  const obs::HealthSnapshot h = obs::health_snapshot();
  ASSERT_EQ(h.failures.size(), 1u);
  const obs::FailureRecord& f = h.failures.front();
  EXPECT_EQ(f.tile_i, 0);
  EXPECT_EQ(f.tile_j, 0);
  EXPECT_EQ(f.pivot, 6);
  EXPECT_EQ(f.precision, Precision::FP64);
  EXPECT_EQ(f.rule, "adaptive-frobenius");
  EXPECT_GT(f.tile_norm, 0.0);
  EXPECT_FALSE(f.neighbors.empty());
  EXPECT_NE(f.what.find("tile 0"), std::string::npos);
}

TEST_F(ObsHealth, FailureCapturesOpenConvergenceTrajectory) {
  obs::begin_convergence("nelder-mead", 1e-9, 4);
  obs::record_opt_iteration(10.0, 10.5, 1.0);
  obs::record_opt_iteration(9.0, 9.2, 0.5);
  obs::FailureRecord f;
  f.what = "injected";
  obs::record_failure(std::move(f));
  const obs::HealthSnapshot h = obs::health_snapshot();
  ASSERT_EQ(h.failures.size(), 1u);
  ASSERT_EQ(h.failures.front().trajectory.size(), 2u);
  EXPECT_DOUBLE_EQ(h.failures.front().trajectory[1], 9.0);
}

TEST_F(ObsHealth, ControlCharactersRoundTripThroughJsonReports) {
  // Iteration labels and failure messages are free text; a tab, a CR or any
  // other control byte must leave profile.json and health.json valid JSON
  // that parses back to the original string.
  const std::string text = std::string("label\t\r\x01") + " \"quoted\" \\";
  obs::reset_profile();
  obs::set_enabled(true);
  obs::begin_iteration(text.c_str());
  obs::end_iteration();
  obs::set_enabled(false);
  obs::FailureRecord f;
  f.what = text;
  f.rule = text;
  obs::record_failure(std::move(f));

  const auto dir = std::filesystem::temp_directory_path();
  const std::string profile = (dir / "gsx_escape_test.profile.json").string();
  const std::string health = (dir / "gsx_escape_test.health.json").string();
  obs::write_profile_json(profile);
  obs::write_health_json(health);
  obs::reset_profile();
  const auto parse = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return serve::JsonValue::parse(ss.str());
  };
  const serve::JsonValue pj = parse(profile);
  const serve::JsonValue hj = parse(health);

  const auto& iters = pj.find("iterations")->as_array();
  ASSERT_EQ(iters.size(), 1u);
  EXPECT_EQ(iters[0].find("label")->as_string(), text);
  const auto& failures = hj.find("failures")->as_array();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].find("what")->as_string(), text);
  EXPECT_EQ(failures[0].find("rule")->as_string(), text);
}

TEST_F(ObsHealth, EnrichedNumericalErrorCarriesContext) {
  NumericalContext ctx;
  ctx.tile_i = ctx.tile_j = 3;
  ctx.pivot = 49;
  ctx.precision = Precision::FP32;
  ctx.rule = "band";
  const NumericalError e("boom", ctx);
  ASSERT_TRUE(e.has_context());
  EXPECT_EQ(e.context().tile_i, 3);
  EXPECT_EQ(e.context().pivot, 49);
  EXPECT_EQ(e.context().precision, Precision::FP32);
  const NumericalError plain("boom");
  EXPECT_FALSE(plain.has_context());
}

// ---------------------------------------------------------------------------
// Condition estimates.

TEST_F(ObsHealth, PowerIterationRecoversKnownSpectrum) {
  // Diagonal matrix with one dominant eigenvalue: lambda_max = 100,
  // lambda_min = 1; both iterations converge fast at this separation.
  tile::SymTileMatrix a(32, 8);
  gsx::test::generate(a, [](std::size_t i, std::size_t j) {
    if (i != j) return 0.0;
    return i == 0 ? 100.0 : 1.0;
  });
  const double lmax = cholesky::estimate_lambda_max(a, 20);
  EXPECT_NEAR(lmax, 100.0, 1.0);

  cholesky::FactorOptions opts;
  ASSERT_EQ(cholesky::tile_cholesky_dense(a, opts).info, 0);
  const obs::ConditionEstimate c = cholesky::audit_condition(lmax, a, 20);
  EXPECT_NEAR(c.lambda_min, 1.0, 0.05);
  EXPECT_NEAR(c.cond2(), 100.0, 6.0);
  ASSERT_EQ(obs::health_snapshot().conditions.size(), 1u);
  EXPECT_EQ(obs::health_snapshot().conditions.front().method, "power-iteration");
}

// ---------------------------------------------------------------------------
// Convergence monitor.

TEST_F(ObsHealth, MonitorFlagsStallAndClearsOnConvergedFinish) {
  obs::ConvergenceMonitor m(1.0e-8, 5);
  for (int i = 0; i < 10; ++i) m.add(1.0, 1.0, 0.1);
  EXPECT_TRUE(m.stalled());
  EXPECT_FALSE(m.diverged());
  m.finish(true);  // a legitimately converged run looks stalled by construction
  EXPECT_FALSE(m.stalled());
}

TEST_F(ObsHealth, MonitorSeesImprovementAsHealthy) {
  obs::ConvergenceMonitor m(1.0e-8, 5);
  double best = 100.0;
  for (int i = 0; i < 10; ++i) {
    best *= 0.9;
    m.add(best, best, 0.1);
  }
  EXPECT_FALSE(m.stalled());
  EXPECT_FALSE(m.diverged());
}

TEST_F(ObsHealth, MonitorFlagsDivergence) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  obs::ConvergenceMonitor m(1.0e-8, 3);
  for (int i = 0; i < 3; ++i) m.add(1.0, nan, 0.1);
  EXPECT_TRUE(m.diverged()) << "window of non-finite candidates";

  obs::ConvergenceMonitor m2(1.0e-8, 3);
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 3; ++i) m2.add(inf, inf, 0.1);
  EXPECT_TRUE(m2.diverged()) << "best still non-finite after the window";
}

TEST_F(ObsHealth, NelderMeadStallIsRecorded) {
  // A perfectly flat objective can never satisfy xtol = 0: the optimizer
  // burns its budget without improving, which the monitor must flag.
  const optim::Objective flat = [](std::span<const double>) { return 1.0; };
  optim::NelderMeadOptions opts;
  opts.max_evals = 90;
  opts.ftol = 1.0e-10;
  opts.xtol = 0.0;
  const std::vector<double> x0 = {0.5, 0.5}, lo = {0.0, 0.0}, hi = {1.0, 1.0};
  const optim::OptimResult r = optim::nelder_mead(flat, x0, lo, hi, opts);
  EXPECT_FALSE(r.converged);

  const obs::HealthSnapshot h = obs::health_snapshot();
  ASSERT_EQ(h.convergence.size(), 1u);
  EXPECT_EQ(h.convergence.front().optimizer, "nelder-mead");
  EXPECT_GE(h.convergence.front().trajectory.size(), 12u);
  EXPECT_TRUE(h.convergence.front().stalled);
  EXPECT_FALSE(h.convergence.front().converged);
}

// ---------------------------------------------------------------------------
// Report writer.

TEST_F(ObsHealth, WriteHealthJsonEmitsSchemaAndSections) {
  obs::record_bound_context("band", 1e-8, 10.0, 2);
  obs::DemotionRecord d;
  d.i = 1;
  d.chosen = Precision::FP16;
  d.observed_err = 1e-9;
  obs::record_demotion(d);
  obs::record_nonfinite("assemble", 2, 1, 7);
  obs::TlrRecord t;
  t.rank = 5;
  t.tol = 1e-8;
  t.observed_err = 5e-9;
  obs::record_tlr(t);

  const std::string path = ::testing::TempDir() + "gsx_health_test.json";
  obs::write_health_json(path);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"schema\": \"gsx-health-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"bound_audit\""), std::string::npos);
  EXPECT_NE(text.find("\"FP16\""), std::string::npos);
  EXPECT_NE(text.find("\"nonfinite_total\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"tlr_audit\""), std::string::npos);
  EXPECT_NE(text.find("\"convergence\""), std::string::npos);
  EXPECT_NE(text.find("\"failures\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Structured logger.

TEST_F(ObsHealth, LogLevelGateIsOffByDefault) {
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::Error));
  obs::set_log_level(obs::LogLevel::Warn);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::Warn));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::Error));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::Info));
}

TEST_F(ObsHealth, ParseLogLevelRoundTrips) {
  using obs::LogLevel;
  for (LogLevel l : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                     LogLevel::Error, LogLevel::Off})
    EXPECT_EQ(obs::parse_log_level(obs::log_level_name(l)), l);
  EXPECT_FALSE(obs::parse_log_level("loud").has_value());
}

TEST_F(ObsHealth, JsonlSinkEmitsStructuredFields) {
  const std::string path = ::testing::TempDir() + "gsx_log_test.jsonl";
  obs::open_log_json(path);
  obs::set_log_level(obs::LogLevel::Info);
  obs::log_info("test", "hello world",
                {obs::lf("x", std::uint64_t{42}), obs::lf("ratio", 1.5),
                 obs::lf("tag", "abc"), obs::lf("ok", true)});
  obs::log_debug("test", "below threshold");  // must not appear
  obs::close_log_json();

  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"msg\": \"hello world\""), std::string::npos);
  EXPECT_NE(text.find("\"x\": 42"), std::string::npos);
  EXPECT_NE(text.find("\"ratio\": 1.5"), std::string::npos);
  EXPECT_NE(text.find("\"tag\": \"abc\""), std::string::npos);
  EXPECT_NE(text.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(text.find("below threshold"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gsx
