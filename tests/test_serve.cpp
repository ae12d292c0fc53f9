// Serving subsystem: registry LRU semantics, batched kriging engine
// (correctness vs the dense oracle, admission control, deadlines), the wire
// protocol, and a full socket end-to-end pass against the daemon's Server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cholesky/tile_solve.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "geostat/field.hpp"
#include "geostat/kernel_registry.hpp"
#include "geostat/locations.hpp"
#include "geostat/prediction.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "test_utils.hpp"

namespace gsx::serve {
namespace {

struct Problem {
  std::vector<geostat::Location> locs;
  std::vector<double> z;
  std::vector<double> theta{1.0, 0.1, 0.5};
};

Problem make_problem(std::size_t n, std::uint64_t seed = 13) {
  Rng rng(seed);
  Problem p;
  p.locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(p.locs);
  const auto kernel = geostat::make_kernel("matern", p.theta);
  p.z = geostat::simulate_grf(*kernel, p.locs, rng);
  return p;
}

std::shared_ptr<const LoadedModel> make_model(const Problem& p, const std::string& name) {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::DenseFP64;
  cfg.tile_size = 24;
  cfg.calibrate_perf_model = false;
  const core::GsxModel model(geostat::make_kernel("matern", p.theta), cfg);
  ModelCheckpoint ckpt;
  ckpt.kernel = "matern";
  ckpt.theta = p.theta;
  ckpt.config = cfg;
  ckpt.train_locs = p.locs;
  ckpt.z_train = p.z;
  ckpt.factor = model.factor_at(p.theta, p.locs);
  return LoadedModel::from_checkpoint(name, std::move(ckpt));
}

std::vector<geostat::Location> random_points(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geostat::Location> pts(m);
  for (geostat::Location& l : pts) {
    l.x = rng.uniform();
    l.y = rng.uniform();
  }
  return pts;
}

/// |a - b| <= tol * max(1, |b|), elementwise.
void expect_close(const std::vector<double>& a, const std::vector<double>& b,
                  double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_LE(std::abs(a[i] - b[i]), tol * std::max(1.0, std::abs(b[i]))) << i;
}

// --- registry ---------------------------------------------------------------

TEST(Registry, InsertGetUnloadStats) {
  const Problem p = make_problem(72);
  ModelRegistry reg;
  EXPECT_EQ(reg.get("a"), nullptr);
  reg.insert(make_model(p, "a"));
  const auto a = reg.get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name, "a");

  const RegistryStats s = reg.stats();
  EXPECT_EQ(s.models, 1u);
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.resident_bytes, a->resident_bytes);

  EXPECT_TRUE(reg.unload("a"));
  EXPECT_FALSE(reg.unload("a"));
  EXPECT_EQ(reg.stats().models, 0u);
  EXPECT_EQ(reg.stats().resident_bytes, 0u);
}

TEST(Registry, EvictsLeastRecentlyUsedUnderPressure) {
  const Problem p = make_problem(72);
  const auto a = make_model(p, "a");
  // Capacity fits two models but not three.
  ModelRegistry reg(a->resident_bytes * 5 / 2);
  reg.insert(a);
  reg.insert(make_model(p, "b"));
  ASSERT_NE(reg.get("a"), nullptr);  // bump a's recency above b's
  reg.insert(make_model(p, "c"));    // must evict b, the LRU entry

  EXPECT_NE(reg.get("a"), nullptr);
  EXPECT_EQ(reg.get("b"), nullptr);
  EXPECT_NE(reg.get("c"), nullptr);
  EXPECT_EQ(reg.stats().evictions, 1u);
  EXPECT_EQ(reg.stats().models, 2u);
}

TEST(Registry, ReplacingANameDoesNotLeakBytes) {
  const Problem p = make_problem(72);
  ModelRegistry reg;
  reg.insert(make_model(p, "a"));
  const std::size_t once = reg.stats().resident_bytes;
  reg.insert(make_model(p, "a"));
  EXPECT_EQ(reg.stats().resident_bytes, once);
  EXPECT_EQ(reg.stats().models, 1u);
}

TEST(Registry, RejectsModelLargerThanCache) {
  const Problem p = make_problem(72);
  ModelRegistry reg(128);  // bytes — far below any real model
  EXPECT_THROW(reg.insert(make_model(p, "big")), InvalidArgument);
}

TEST(Registry, ResidentBytesCountThePackedFactor) {
  const Problem p = make_problem(72);
  const auto m = make_model(p, "a");
  // Every dense off-diagonal tile of the factor is held packed as FP64 too.
  std::size_t dense_offdiag = 0;
  for (std::size_t i = 1; i < m->factor.nt(); ++i)
    for (std::size_t k = 0; k < i; ++k) {
      const tile::Tile& t = m->factor.at(i, k);
      if (t.format() == tile::TileFormat::Dense) dense_offdiag += t.rows() * t.cols();
    }
  ASSERT_GT(dense_offdiag, 0u);
  EXPECT_GE(m->packed_factor.bytes(), dense_offdiag * sizeof(double));
  const std::size_t data = m->train_locs.size() * sizeof(geostat::Location) +
                           (m->z_train.size() + m->y_solved.size()) * sizeof(double);
  EXPECT_EQ(m->resident_bytes, m->factor.footprint_bytes() + m->packed_factor.bytes() + data);
  ModelRegistry reg;
  reg.insert(m);
  EXPECT_EQ(reg.stats().resident_bytes, m->resident_bytes);
}

// --- engine -----------------------------------------------------------------

TEST(Engine, MatchesDenseKrigingOracle) {
  const Problem p = make_problem(120);
  const auto model = make_model(p, "m");
  const auto pts = random_points(17, 29);

  KrigingEngine engine(EngineConfig{2, 16, 4096});
  PredictOutcome out = engine.submit(model, pts, true).get();
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.mean.size(), pts.size());

  const auto kernel = geostat::make_kernel("matern", p.theta);
  const auto oracle = gsx::test::krige(*kernel, p.locs, p.z, pts, true);
  expect_close(out.mean, oracle.mean, 1e-10);
  expect_close(out.variance, oracle.variance, 1e-10);
}

TEST(Engine, MicroBatchesQueuedRequestsIntoOnePass) {
  const Problem p = make_problem(96);
  const auto model = make_model(p, "m");
  const std::size_t k = 5;

  KrigingEngine engine(EngineConfig{1, 16, 4096}, /*auto_start=*/false);
  std::vector<std::future<PredictOutcome>> futures;
  std::vector<std::vector<geostat::Location>> pts;
  for (std::size_t r = 0; r < k; ++r) {
    pts.push_back(random_points(3 + r, 100 + r));
    futures.push_back(engine.submit(model, pts.back(), r % 2 == 0));
  }
  engine.start();

  const auto kernel = geostat::make_kernel("matern", p.theta);
  for (std::size_t r = 0; r < k; ++r) {
    PredictOutcome out = futures[r].get();
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.batched_with, k);  // all pre-queued requests in one batch
    const auto oracle = gsx::test::krige(*kernel, p.locs, p.z, pts[r], true);
    expect_close(out.mean, oracle.mean, 1e-10);
    if (r % 2 == 0) expect_close(out.variance, oracle.variance, 1e-10);
    else EXPECT_TRUE(out.variance.empty());
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.accepted, k);
  EXPECT_EQ(s.completed, k);
  EXPECT_EQ(s.batches, 1u);
}

TEST(Engine, ConcurrentSubmittersAllGetCorrectAnswers) {
  const Problem p = make_problem(120);
  const auto model = make_model(p, "m");
  const auto kernel = geostat::make_kernel("matern", p.theta);
  KrigingEngine engine(EngineConfig{2, 64, 8192});

  constexpr std::size_t kThreads = 4, kPerThread = 6;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        const auto pts = random_points(5, 1000 + t * 100 + r);
        PredictOutcome out = engine.submit(model, pts, true).get();
        if (!out.ok) {
          ++failures;
          continue;
        }
        const auto oracle = gsx::test::krige(*kernel, p.locs, p.z, pts, true);
        for (std::size_t i = 0; i < pts.size(); ++i)
          if (std::abs(out.mean[i] - oracle.mean[i]) >
              1e-10 * std::max(1.0, std::abs(oracle.mean[i])))
            ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(engine.stats().completed, kThreads * kPerThread);
}

/// A model served from its checkpoint (LoadedModel, packed once at load)
/// answers exactly what the in-process GsxModel::predict answers, bit for
/// bit, for 1, 4 and 7 points at engine workers 1 and 2.
void expect_served_equals_in_process(core::ModelConfig cfg, const std::vector<double>& theta,
                                     std::size_t n, bool expect_lowrank) {
  Rng rng(21);
  std::vector<geostat::Location> locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(locs);
  const std::vector<double> z =
      geostat::simulate_grf(*geostat::make_kernel("matern", theta), locs, rng);
  cfg.calibrate_perf_model = false;
  for (const std::size_t workers : {1, 2}) {
    cfg.workers = workers;
    const core::GsxModel model(geostat::make_kernel("matern", theta), cfg);
    ModelCheckpoint ckpt;
    ckpt.kernel = "matern";
    ckpt.theta = theta;
    ckpt.config = cfg;
    ckpt.train_locs = locs;
    ckpt.z_train = z;
    ckpt.factor = model.factor_at(theta, locs);
    const auto loaded = LoadedModel::from_checkpoint("m", std::move(ckpt));

    // The factor has what the test is about: a ragged last tile row, and
    // FP32 dense off-diagonal tiles (packed widened) or low-rank tiles (not
    // packed).
    const tile::SymTileMatrix& f = loaded->factor;
    ASSERT_NE(f.tile_dim(f.nt() - 1), cfg.tile_size);
    std::size_t fp32 = 0, lowrank = 0;
    for (std::size_t i = 1; i < f.nt(); ++i)
      for (std::size_t k = 0; k < i; ++k) {
        const tile::Tile& t = f.at(i, k);
        if (t.format() == tile::TileFormat::LowRank) {
          ++lowrank;
          EXPECT_EQ(loaded->packed_factor.at(i, k), nullptr);
        } else {
          fp32 += t.precision() == Precision::FP32;
          ASSERT_NE(loaded->packed_factor.at(i, k), nullptr);
        }
      }
    if (expect_lowrank)
      EXPECT_GT(lowrank, 0u);
    else
      EXPECT_GT(fp32, 0u);

    KrigingEngine engine(EngineConfig{workers, 16, 4096});
    for (const std::size_t m : {1, 4, 7}) {
      const auto pts = random_points(m, 40 + m);
      PredictOutcome out = engine.submit(loaded, pts, true).get();
      ASSERT_TRUE(out.ok) << out.error;
      const geostat::KrigingResult ref = model.predict(theta, locs, z, pts, true);
      ASSERT_EQ(out.mean.size(), m);
      ASSERT_EQ(out.variance.size(), m);
      EXPECT_EQ(std::memcmp(out.mean.data(), ref.mean.data(), m * sizeof(double)), 0)
          << "mean, " << m << " points, " << workers << " workers";
      EXPECT_EQ(std::memcmp(out.variance.data(), ref.variance.data(), m * sizeof(double)), 0)
          << "variance, " << m << " points, " << workers << " workers";
    }
  }
}

TEST(Engine, ServedMixedPrecisionFactorAnswersBitForBit) {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDense;
  cfg.tile_size = 128;
  expect_served_equals_in_process(cfg, {1.0, 0.1, 0.5}, 600, false);
}

TEST(Engine, ServedTlrFactorAnswersBitForBit) {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDenseTLR;
  cfg.tile_size = 64;
  cfg.auto_band = false;
  cfg.band_size = 2;
  expect_served_equals_in_process(cfg, {1.0, 0.03, 0.5}, 600, true);
}

/// Served answers depend on the model, the batch's points and the ISA, and
/// not on the worker count: tile_krige_solved and the engine give
/// memcmp-equal means and variances at workers 1, 2 and 3, for batches of
/// 1 to 9 points (one column block) and of 48 (three).
void expect_answers_worker_independent(core::ModelConfig cfg, const std::vector<double>& theta,
                                       std::size_t n) {
  Rng rng(21);
  std::vector<geostat::Location> locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(locs);
  const std::vector<double> z =
      geostat::simulate_grf(*geostat::make_kernel("matern", theta), locs, rng);
  cfg.calibrate_perf_model = false;
  const core::GsxModel model(geostat::make_kernel("matern", theta), cfg);
  ModelCheckpoint ckpt;
  ckpt.kernel = "matern";
  ckpt.theta = theta;
  ckpt.config = cfg;
  ckpt.train_locs = locs;
  ckpt.z_train = z;
  ckpt.factor = model.factor_at(theta, locs);
  const auto loaded = LoadedModel::from_checkpoint("m", std::move(ckpt));

  KrigingEngine engine1(EngineConfig{1, 16, 4096});
  KrigingEngine engine2(EngineConfig{2, 16, 4096});
  KrigingEngine engine3(EngineConfig{3, 16, 4096});
  const auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (const std::size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 48}) {
    const auto pts = random_points(m, 70 + m);
    const auto solve = [&](std::size_t workers) {
      return cholesky::tile_krige_solved(*loaded->kernel, loaded->factor, loaded->packed_factor,
                                         loaded->y_solved, loaded->train_locs, pts, true,
                                         workers);
    };
    const geostat::KrigingResult ref = solve(1);
    for (const std::size_t workers : {2, 3}) {
      const geostat::KrigingResult got = solve(workers);
      EXPECT_TRUE(same(got.mean, ref.mean))
          << "mean, " << m << " points, " << workers << " workers";
      EXPECT_TRUE(same(got.variance, ref.variance))
          << "variance, " << m << " points, " << workers << " workers";
    }
    std::size_t workers = 1;
    for (KrigingEngine* engine : {&engine1, &engine2, &engine3}) {
      const PredictOutcome out = engine->submit(loaded, pts, true).get();
      ASSERT_TRUE(out.ok) << out.error;
      EXPECT_TRUE(same(out.mean, ref.mean))
          << "engine mean, " << m << " points, " << workers << " workers";
      EXPECT_TRUE(same(out.variance, ref.variance))
          << "engine variance, " << m << " points, " << workers << " workers";
      ++workers;
    }
  }
}

TEST(Engine, MixedPrecisionAnswersDoNotDependOnWorkers) {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDense;
  cfg.tile_size = 128;
  expect_answers_worker_independent(cfg, {1.0, 0.1, 0.5}, 600);
}

TEST(Engine, TlrAnswersDoNotDependOnWorkers) {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDenseTLR;
  cfg.tile_size = 64;
  cfg.auto_band = false;
  cfg.band_size = 2;
  expect_answers_worker_independent(cfg, {1.0, 0.03, 0.5}, 600);
}

/// A served point's answer depends on the model, the point and the ISA
/// alone: in every batch of 1 to 16 points and of 48, each point's mean and
/// variance are memcmp-equal to the same point solved alone, through
/// tile_krige_solved and through the engine at workers 1 and 3, whether
/// the points arrive as one request or as one-point requests the
/// dispatcher coalesces into one batch.
void expect_answers_batch_independent(core::ModelConfig cfg, const std::vector<double>& theta,
                                      std::size_t n) {
  Rng rng(23);
  std::vector<geostat::Location> locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(locs);
  const std::vector<double> z =
      geostat::simulate_grf(*geostat::make_kernel("matern", theta), locs, rng);
  cfg.calibrate_perf_model = false;
  const core::GsxModel model(geostat::make_kernel("matern", theta), cfg);
  ModelCheckpoint ckpt;
  ckpt.kernel = "matern";
  ckpt.theta = theta;
  ckpt.config = cfg;
  ckpt.train_locs = locs;
  ckpt.z_train = z;
  ckpt.factor = model.factor_at(theta, locs);
  const auto loaded = LoadedModel::from_checkpoint("m", std::move(ckpt));

  const auto solve = [&](std::span<const geostat::Location> pts, std::size_t workers) {
    return cholesky::tile_krige_solved(*loaded->kernel, loaded->factor, loaded->packed_factor,
                                       loaded->y_solved, loaded->train_locs, pts, true, workers);
  };
  const auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  std::vector<std::size_t> sizes;
  for (std::size_t m = 1; m <= 16; ++m) sizes.push_back(m);
  sizes.push_back(48);
  for (const std::size_t m : sizes) {
    const auto pts = random_points(m, 90 + m);
    std::vector<geostat::KrigingResult> solo;
    for (std::size_t j = 0; j < m; ++j)
      solo.push_back(solve(std::span<const geostat::Location>(pts).subspan(j, 1), 1));
    const auto expect_solo = [&](const std::vector<double>& mean,
                                 const std::vector<double>& variance, const std::string& what) {
      ASSERT_EQ(mean.size(), m);
      ASSERT_EQ(variance.size(), m);
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_TRUE(same(mean[j], solo[j].mean[0]))
            << what << ": mean of point " << j << " of " << m;
        EXPECT_TRUE(same(variance[j], solo[j].variance[0]))
            << what << ": variance of point " << j << " of " << m;
      }
    };
    for (const std::size_t workers : {1, 3}) {
      const std::string at = ", " + std::to_string(workers) + " workers";
      const geostat::KrigingResult got = solve(pts, workers);
      expect_solo(got.mean, got.variance, "tile_krige_solved" + at);

      KrigingEngine engine(EngineConfig{workers, 64, 4096}, /*auto_start=*/false);
      auto whole = engine.submit(loaded, pts, true);
      std::vector<std::future<PredictOutcome>> singles;
      for (std::size_t j = 0; j < m; ++j)
        singles.push_back(engine.submit(loaded, std::vector<geostat::Location>{pts[j]}, true));
      engine.start();
      const PredictOutcome out = whole.get();
      ASSERT_TRUE(out.ok) << out.error;
      expect_solo(out.mean, out.variance, "engine request" + at);
      std::vector<double> mean, variance;
      for (auto& f : singles) {
        const PredictOutcome one = f.get();
        ASSERT_TRUE(one.ok) << one.error;
        ASSERT_EQ(one.mean.size(), 1u);
        mean.push_back(one.mean[0]);
        variance.push_back(one.variance[0]);
      }
      expect_solo(mean, variance, "engine coalesced singles" + at);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(Engine, MixedPrecisionAnswersDoNotDependOnTheBatch) {
  // predict-fleet's model: MPDense, n = 600 at tile 128 (an 88-row last
  // tile).
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDense;
  cfg.tile_size = 128;
  expect_answers_batch_independent(cfg, {1.0, 0.1, 0.5}, 600);
}

TEST(Engine, TlrAnswersDoNotDependOnTheBatch) {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDenseTLR;
  cfg.tile_size = 64;
  cfg.auto_band = false;
  cfg.band_size = 2;
  expect_answers_batch_independent(cfg, {1.0, 0.03, 0.5}, 600);
}

TEST(Engine, QueueFullFastFails) {
  const Problem p = make_problem(48);
  const auto model = make_model(p, "m");
  KrigingEngine engine(EngineConfig{1, 2, 4096}, /*auto_start=*/false);

  auto f1 = engine.submit(model, random_points(2, 1), true);
  auto f2 = engine.submit(model, random_points(2, 2), true);
  auto f3 = engine.submit(model, random_points(2, 3), true);  // over capacity

  // The rejection is immediate — no dispatcher is running yet.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const PredictOutcome rejected = f3.get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "queue full");
  EXPECT_EQ(engine.stats().rejected_queue_full, 1u);

  engine.start();
  EXPECT_TRUE(f1.get().ok);
  EXPECT_TRUE(f2.get().ok);
}

TEST(Engine, ExpiredDeadlineFailsWithoutSolving) {
  const Problem p = make_problem(48);
  const auto model = make_model(p, "m");
  KrigingEngine engine(EngineConfig{1, 8, 4096}, /*auto_start=*/false);

  const auto expired = KrigingEngine::Clock::now() - std::chrono::milliseconds(1);
  auto f = engine.submit(model, random_points(3, 4), true, expired);
  engine.start();
  const PredictOutcome out = f.get();
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("deadline"), std::string::npos) << out.error;
  EXPECT_EQ(engine.stats().rejected_deadline, 1u);
  EXPECT_EQ(engine.stats().completed, 0u);
}

TEST(Engine, DrainFailsQueuedAndRejectsNewWork) {
  const Problem p = make_problem(48);
  const auto model = make_model(p, "m");
  KrigingEngine engine(EngineConfig{1, 8, 4096}, /*auto_start=*/false);
  auto f = engine.submit(model, random_points(2, 5), true);
  engine.drain();
  EXPECT_FALSE(f.get().ok);
  const PredictOutcome after = engine.submit(model, random_points(2, 6), true).get();
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.error, "engine draining");
}

TEST(Engine, NullModelAndEmptyPointsFailFast) {
  KrigingEngine engine(EngineConfig{1, 8, 4096}, /*auto_start=*/false);
  EXPECT_FALSE(engine.submit(nullptr, random_points(2, 7), true).get().ok);
  const Problem p = make_problem(48);
  EXPECT_FALSE(engine.submit(make_model(p, "m"), {}, true).get().ok);
}

// --- wire protocol ----------------------------------------------------------

TEST(Wire, ParsesAndDumps) {
  const JsonValue v = JsonValue::parse(
      R"({"op":"predict","points":[[0.25,0.5],[1,2,3]],"variance":false,"s":"a\"b\n\u00e9"})");
  EXPECT_EQ(v.find("op")->as_string(), "predict");
  EXPECT_EQ(v.find("points")->as_array().size(), 2u);
  EXPECT_EQ(v.find("points")->as_array()[1].as_array()[2].as_number(), 3.0);
  EXPECT_FALSE(v.find("variance")->as_bool());
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\n\xc3\xa9");
  EXPECT_EQ(v.find("missing"), nullptr);

  // dump -> parse round trip.
  const JsonValue back = JsonValue::parse(v.dump());
  EXPECT_EQ(back.dump(), v.dump());
}

TEST(Wire, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("[1,2,"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("nul"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("\"\\u12\""), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("1e999x"), InvalidArgument);
}

// --- server: handler + socket e2e -------------------------------------------

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string save_checkpoint_for(const Problem& p) {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::DenseFP64;
  cfg.tile_size = 24;
  cfg.calibrate_perf_model = false;
  const core::GsxModel model(geostat::make_kernel("matern", p.theta), cfg);
  ModelCheckpoint ckpt;
  ckpt.kernel = "matern";
  ckpt.theta = p.theta;
  ckpt.config = cfg;
  ckpt.train_locs = p.locs;
  ckpt.z_train = p.z;
  ckpt.factor = model.factor_at(p.theta, p.locs);
  const std::string path = temp_path("gsx_serve_e2e.ckpt");
  save_model_checkpoint(path, ckpt);
  return path;
}

TEST(Server, HandleLineProtocolErrors) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);

  auto expect_err = [&](const std::string& line, const std::string& needle) {
    const JsonValue r = JsonValue::parse(server.handle_line(line));
    EXPECT_FALSE(r.find("ok")->as_bool()) << line;
    EXPECT_NE(r.find("error")->as_string().find(needle), std::string::npos)
        << line << " -> " << r.dump();
  };
  expect_err("this is not json", "JSON parse error");
  expect_err("[1,2,3]", "must be a JSON object");
  expect_err(R"({"noop":1})", "op");
  expect_err(R"({"op":"transmogrify"})", "unknown op");
  expect_err(R"({"op":"predict","model":"ghost","points":[[0,0]]})", "no such model");
  expect_err(R"({"op":"load","name":"x","path":"/nonexistent.ckpt"})", "cannot open");
  expect_err(R"({"op":"predict","model":"ghost"})", "no such model");

  const JsonValue health = JsonValue::parse(server.handle_line(R"({"op":"health"})"));
  EXPECT_TRUE(health.find("ok")->as_bool());
  EXPECT_EQ(health.find("status")->as_string(), "serving");
  const JsonValue stats = JsonValue::parse(server.handle_line(R"({"op":"stats"})"));
  EXPECT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(stats.find("registry")->find("models")->as_number(), 0.0);
}

/// Minimal blocking NDJSON client for the e2e test.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  JsonValue request(const std::string& line) {
    std::string out = line;
    out.push_back('\n');
    EXPECT_EQ(::write(fd_, out.data(), out.size()), static_cast<ssize_t>(out.size()));
    std::string response;
    char c;
    while (::read(fd_, &c, 1) == 1 && c != '\n') response.push_back(c);
    return JsonValue::parse(response);
  }

 private:
  int fd_ = -1;
};

TEST(Server, SocketEndToEndLoadPredictStatsDrain) {
  const Problem p = make_problem(120);
  const std::string ckpt_path = save_checkpoint_for(p);
  const auto kernel = geostat::make_kernel("matern", p.theta);

  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  Server server(cfg);
  const std::uint16_t port = server.listen();
  ASSERT_GT(port, 0);
  std::thread accept_thread([&] { server.serve_forever(); });

  {
    Client admin(port);
    const JsonValue loaded = admin.request(
        R"({"op":"load","name":"m","path":")" + ckpt_path + R"("})");
    ASSERT_TRUE(loaded.find("ok")->as_bool()) << loaded.dump();
    EXPECT_EQ(loaded.find("kernel")->as_string(), "matern");
    EXPECT_EQ(loaded.find("n_train")->as_number(), 120.0);
  }

  // Concurrent predict clients, each on its own connection.
  constexpr std::size_t kClients = 4;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client c(port);
      const auto pts = random_points(4, 500 + t);
      std::string req = R"({"op":"predict","model":"m","points":[)";
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (i) req += ",";
        req += "[" + std::to_string(pts[i].x) + "," + std::to_string(pts[i].y) + "]";
      }
      req += "]}";
      const JsonValue r = c.request(req);
      if (!r.find("ok")->as_bool()) {
        ++failures;
        return;
      }
      // The wire carries full double precision (shortest round-trip form),
      // but the request coordinates went through to_string (6 digits), so
      // re-derive the oracle at the *parsed* coordinates.
      std::vector<geostat::Location> sent(pts.size());
      for (std::size_t i = 0; i < pts.size(); ++i) {
        sent[i].x = std::stod(std::to_string(pts[i].x));
        sent[i].y = std::stod(std::to_string(pts[i].y));
      }
      const auto oracle = gsx::test::krige(*kernel, p.locs, p.z, sent, true);
      const auto& mean = r.find("mean")->as_array();
      const auto& var = r.find("variance")->as_array();
      for (std::size_t i = 0; i < sent.size(); ++i) {
        if (std::abs(mean[i].as_number() - oracle.mean[i]) >
            1e-10 * std::max(1.0, std::abs(oracle.mean[i])))
          ++failures;
        if (std::abs(var[i].as_number() - oracle.variance[i]) >
            1e-10 * std::max(1.0, std::abs(oracle.variance[i])))
          ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);

  {
    Client admin(port);
    const JsonValue stats = admin.request(R"({"op":"stats"})");
    ASSERT_TRUE(stats.find("ok")->as_bool());
    EXPECT_GE(stats.find("engine")->find("completed")->as_number(),
              static_cast<double>(kClients));
    EXPECT_EQ(stats.find("registry")->find("models")->as_number(), 1.0);

    const JsonValue unloaded = admin.request(R"({"op":"unload","name":"m"})");
    EXPECT_TRUE(unloaded.find("ok")->as_bool());
    EXPECT_TRUE(unloaded.find("unloaded")->as_bool());
  }

  server.shutdown();
  accept_thread.join();
  EXPECT_FALSE(server.running());
  std::remove(ckpt_path.c_str());
}

// --- response schemas -------------------------------------------------------

void expect_number_field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  ASSERT_NE(v, nullptr) << "missing \"" << key << "\"";
  EXPECT_TRUE(v->is_number()) << key;
}

TEST(Server, StatsSchemaReflectsCompletedPredict) {
  const Problem p = make_problem(72);
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);
  server.registry().insert(make_model(p, "m"));

  const JsonValue before = JsonValue::parse(server.handle_line(R"({"op":"stats"})"));
  ASSERT_TRUE(before.find("ok")->as_bool());
  const JsonValue* reg = before.find("registry");
  const JsonValue* eng = before.find("engine");
  ASSERT_NE(reg, nullptr);
  ASSERT_NE(eng, nullptr);
  for (const char* key : {"models", "resident_bytes", "capacity_bytes", "hits",
                          "misses", "loads", "evictions"})
    expect_number_field(*reg, key);
  for (const char* key : {"accepted", "completed", "rejected_queue_full",
                          "rejected_deadline", "batches", "batched_points",
                          "queue_depth"})
    expect_number_field(*eng, key);
  EXPECT_EQ(eng->find("completed")->as_number(), 0.0);

  const JsonValue r = JsonValue::parse(server.handle_line(
      R"({"op":"predict","model":"m","points":[[0.2,0.3],[0.4,0.5]]})"));
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();

  const JsonValue after = JsonValue::parse(server.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(after.find("engine")->find("completed")->as_number(), 1.0);
  EXPECT_EQ(after.find("engine")->find("accepted")->as_number(), 1.0);
  EXPECT_GE(after.find("engine")->find("batches")->as_number(), 1.0);
  EXPECT_GE(after.find("engine")->find("batched_points")->as_number(), 2.0);
  EXPECT_GE(after.find("registry")->find("hits")->as_number(), 1.0);
}

// A deadline beyond the steady clock's range (int64 ns, ~292 years) is no
// deadline; converting it used to overflow and reject the predict as late.
TEST(Server, DeadlineBeyondClockRangeMeansNoDeadline) {
  const Problem p = make_problem(72);
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);
  server.registry().insert(make_model(p, "m"));
  for (const char* deadline_ms : {"1000", "1e15", "1e300"}) {
    const JsonValue r = JsonValue::parse(server.handle_line(
        std::string(R"({"op":"predict","model":"m","points":[[0.2,0.3]],"deadline_ms":)") +
        deadline_ms + "}"));
    EXPECT_TRUE(r.find("ok")->as_bool()) << deadline_ms << " -> " << r.dump();
  }
}

TEST(Server, HealthSchema) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);
  const JsonValue h = JsonValue::parse(server.handle_line(R"({"op":"health"})"));
  ASSERT_TRUE(h.find("ok")->as_bool());
  const JsonValue* status = h.find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_TRUE(status->is_string());
  EXPECT_EQ(status->as_string(), "serving");
  expect_number_field(h, "models");
  expect_number_field(h, "queue_depth");
}

// --- per-request tracing ----------------------------------------------------

TEST(Server, PredictCarriesRequestIdAndConsistentTiming) {
  const Problem p = make_problem(96);
  ServerConfig cfg;
  cfg.workers = 2;
  Server server(cfg);
  server.registry().insert(make_model(p, "m"));

  obs::set_enabled(true);
  const JsonValue r = JsonValue::parse(server.handle_line(
      R"({"op":"predict","model":"m","points":[[0.1,0.9],[0.5,0.5],[0.9,0.1]]})"));
  obs::set_enabled(false);
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();

  const JsonValue* id = r.find("request_id");
  ASSERT_NE(id, nullptr);
  ASSERT_TRUE(id->is_string());
  EXPECT_EQ(id->as_string().rfind("r-", 0), 0u) << id->as_string();

  const JsonValue* timing = r.find("timing");
  ASSERT_NE(timing, nullptr);
  for (const char* key :
       {"queue_seconds", "assemble_seconds", "solve_seconds", "total_seconds"})
    expect_number_field(*timing, key);
  const double queue = timing->find("queue_seconds")->as_number();
  const double assemble = timing->find("assemble_seconds")->as_number();
  const double solve = timing->find("solve_seconds")->as_number();
  const double total = timing->find("total_seconds")->as_number();
  EXPECT_GE(queue, 0.0);
  EXPECT_GT(assemble, 0.0);
  EXPECT_GT(solve, 0.0);
  EXPECT_GT(total, 0.0);
  // The spans tile the request's life: their sum cannot exceed the total
  // (scatter/future overhead makes it strictly less).
  EXPECT_LE(queue + assemble + solve, total + 1e-9);
  EXPECT_DOUBLE_EQ(total, r.find("total_seconds")->as_number());
}

// --- metrics exposition ------------------------------------------------------

TEST(Server, MetricsVerbRendersPrometheusText) {
  const Problem p = make_problem(72);
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);
  server.registry().insert(make_model(p, "m"));

  obs::set_enabled(true);
  const JsonValue r = JsonValue::parse(server.handle_line(
      R"({"op":"predict","model":"m","points":[[0.3,0.7]]})"));
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  const JsonValue m = JsonValue::parse(server.handle_line(R"({"op":"metrics"})"));
  obs::set_enabled(false);

  ASSERT_TRUE(m.find("ok")->as_bool());
  EXPECT_NE(m.find("content_type")->as_string().find("version=0.0.4"),
            std::string::npos);
  const std::string& text = m.find("prometheus")->as_string();

  // The pre-registered serving schema is present even where still zero.
  EXPECT_NE(text.find("# TYPE gsx_serve_predict_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gsx_taskgraph_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("gsx_serve_cache_bytes"), std::string::npos);
  EXPECT_NE(text.find("gsx_serve_cache_hits"), std::string::npos);

  // Round-trip the predict-latency histogram: cumulative buckets are
  // non-decreasing, the +Inf bucket equals _count, and one observe landed.
  std::istringstream in(text);
  std::string line;
  double prev = 0.0, inf_bucket = -1.0, count = -1.0;
  while (std::getline(in, line)) {
    if (line.rfind("gsx_serve_predict_seconds_bucket", 0) == 0) {
      const double value = std::stod(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(value, prev) << line;
      prev = value;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_bucket = value;
    } else if (line.rfind("gsx_serve_predict_seconds_count", 0) == 0) {
      count = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_EQ(inf_bucket, count);
  EXPECT_GE(count, 1.0);
}

TEST(Server, MetricsHttpScrapeEndpoint) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.metrics_port = 0;  // ephemeral
  Server server(cfg);
  const std::uint16_t port = server.listen();
  (void)port;
  ASSERT_GT(server.metrics_port(), 0);

  auto scrape = [&](const std::string& target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.metrics_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string req = "GET " + target + " HTTP/1.0\r\nHost: x\r\n\r\n";
    EXPECT_EQ(::write(fd, req.data(), req.size()), static_cast<ssize_t>(req.size()));
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
      response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
  };

  const std::string ok = scrape("/metrics");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("gsx_serve_cache_bytes"), std::string::npos);
  EXPECT_NE(ok.find("gsx_serve_predict_seconds_bucket"), std::string::npos);

  EXPECT_NE(scrape("/").find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(scrape("/nope").find("HTTP/1.0 404"), std::string::npos);

  server.shutdown();
}

// --- failure forensics -------------------------------------------------------

TEST(Server, NumericalFailureDumpsFlightRecorderWithRequestId) {
  // A checkpoint whose factor has a zero on the diagonal: loading silently
  // produces a non-finite y_solved (forward solve divides by L_00), and the
  // first predict hits the non-finite sentinel in tile_krige_solved. The
  // wire cannot inject Inf/NaN directly — this is how bad state really
  // arrives: through data, not through the protocol.
  Problem p = make_problem(72);
  core::ModelConfig mcfg;
  mcfg.variant = core::ComputeVariant::DenseFP64;
  mcfg.tile_size = 24;
  mcfg.calibrate_perf_model = false;
  const core::GsxModel model(geostat::make_kernel("matern", p.theta), mcfg);
  ModelCheckpoint ckpt;
  ckpt.kernel = "matern";
  ckpt.theta = p.theta;
  ckpt.config = mcfg;
  ckpt.train_locs = p.locs;
  ckpt.z_train = p.z;
  ckpt.factor = model.factor_at(p.theta, p.locs);
  ckpt.factor.at(0, 0).matrix<double>()(0, 0) = 0.0;  // the corruption
  const std::string ckpt_path = temp_path("gsx_serve_corrupt.ckpt");
  save_model_checkpoint(ckpt_path, ckpt);

  const std::string dump_path = temp_path("gsx_serve_flight.jsonl");
  std::remove(dump_path.c_str());
  obs::FlightRecorder::instance().set_dump_path(dump_path);

  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);
  const std::uint16_t port = server.listen();
  std::thread accept_thread([&] { server.serve_forever(); });

  {
    Client c(port);
    const JsonValue loaded =
        c.request(R"({"op":"load","name":"bad","path":")" + ckpt_path + R"("})");
    ASSERT_TRUE(loaded.find("ok")->as_bool()) << loaded.dump();

    const JsonValue r =
        c.request(R"({"op":"predict","model":"bad","points":[[0.4,0.6]]})");
    ASSERT_FALSE(r.find("ok")->as_bool()) << r.dump();
    EXPECT_NE(r.find("error")->as_string().find("non-finite"), std::string::npos)
        << r.dump();

    const JsonValue* id = r.find("request_id");
    ASSERT_NE(id, nullptr) << r.dump();
    ASSERT_EQ(id->as_string().rfind("r-", 0), 0u);
    const std::string id_num = id->as_string().substr(2);

    const JsonValue* dumped = r.find("flight_dump");
    ASSERT_NE(dumped, nullptr) << "failure response must name the dump file";
    EXPECT_EQ(dumped->as_string(), dump_path);

    // The dump must tie this request to the solve that blew up.
    std::ifstream in(dump_path);
    ASSERT_TRUE(in.good()) << dump_path;
    std::string line;
    std::vector<std::string> lines;
    bool solve_begin = false, sentinel = false;
    while (std::getline(in, line)) {
      lines.push_back(line);
      if (line.find("\"request\":" + id_num) == std::string::npos) continue;
      if (line.find("\"kind\":\"solve_begin\"") != std::string::npos)
        solve_begin = true;
      if (line.find("\"kind\":\"numerical_sentinel\"") != std::string::npos)
        sentinel = true;
    }
    if (test::kFlightRecords) {
      EXPECT_TRUE(solve_begin) << "dump lacks the request's solve_begin event";
      EXPECT_TRUE(sentinel) << "dump lacks the request's numerical_sentinel event";
    } else {
      // A GSX_TELEMETRY=OFF build records no event: the dump is its header.
      EXPECT_EQ(lines.size(), 1u);
      if (!lines.empty()) {
        EXPECT_NE(lines[0].find("\"kind\":\"dump_header\""), std::string::npos) << lines[0];
      }
    }
  }

  server.shutdown();
  accept_thread.join();
  obs::FlightRecorder::instance().set_dump_path("");
  std::remove(ckpt_path.c_str());
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace gsx::serve
