// Observability layer: registry instruments, flop/conversion ledger,
// phase histograms, iteration profiling and report writers (profile JSON,
// Chrome trace, CSV).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "obs/flops.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "test_utils.hpp"

namespace gsx::obs {
namespace {

/// Every test runs with a clean, enabled observability layer and leaves it
/// disabled (the process-wide default other test binaries rely on).
class ObsMetrics : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_all();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset_all();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST_F(ObsMetrics, CounterAccumulates) {
  Counter& c = Registry::instance().counter("t.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST_F(ObsMetrics, GaugeKeepsLastValue) {
  Gauge& g = Registry::instance().gauge("t.gauge");
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST_F(ObsMetrics, DisabledPathRecordsNothing) {
  Counter& c = Registry::instance().counter("t.disabled.counter");
  Gauge& g = Registry::instance().gauge("t.disabled.gauge");
  Histogram& h = Registry::instance().histogram("t.disabled.hist", {1.0, 2.0});
  set_enabled(false);
  c.add(7);
  g.set(9.0);
  h.observe(1.5);
  add_flops(KernelOp::Gemm, Precision::FP32, 1000);
  add_conversion(Precision::FP64, Precision::FP16, 64);
  annotate_task(Precision::FP32, 4, 100);
  { const ScopedPhase p(Phase::Assemble); }
  begin_iteration("nope");
  end_iteration();
  set_enabled(true);

  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(flop_snapshot().total_flops(), 0u);
  EXPECT_EQ(flop_snapshot().total_conversions(), 0u);
  EXPECT_FALSE(take_task_annotation().has_value());
  EXPECT_EQ(phase_histogram(Phase::Assemble).count(), 0u);
  EXPECT_TRUE(profile_iterations().empty());
}

TEST_F(ObsMetrics, HistogramStatsAndBuckets) {
  Histogram h({10.0, 20.0, 30.0});
  for (int v = 1; v <= 25; ++v) h.observe(static_cast<double>(v));
  h.observe(1000.0);  // overflow bucket

  EXPECT_EQ(h.count(), 26u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.sum(), 325.0 + 1000.0, 1e-12);

  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 10u);     // 1..10
  EXPECT_EQ(buckets[1], 10u);     // 11..20
  EXPECT_EQ(buckets[2], 5u);      // 21..25
  EXPECT_EQ(buckets[3], 1u);      // 1000
}

TEST_F(ObsMetrics, HistogramPercentilesInterpolate) {
  Histogram h({10.0, 20.0, 30.0, 40.0, 50.0});
  for (int v = 1; v <= 50; ++v) h.observe(static_cast<double>(v));

  EXPECT_EQ(h.percentile(0.0), 1.0);   // clamped to observed min
  EXPECT_EQ(h.percentile(1.0), 50.0);  // clamped to observed max
  EXPECT_NEAR(h.percentile(0.5), 25.0, 6.0);
  EXPECT_NEAR(h.percentile(0.9), 45.0, 6.0);
  EXPECT_LT(h.percentile(0.25), h.percentile(0.75));

  Histogram empty({1.0});
  EXPECT_EQ(empty.percentile(0.5), 0.0);
}

TEST_F(ObsMetrics, OverflowBucketPercentileReturnsObservedMax) {
  // When the requested quantile falls in the +inf overflow bucket there is
  // no finite upper bound to interpolate toward: the only honest answer is
  // the tracked maximum, not a bucket-width extrapolation.
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(100.0);  // overflow
  h.observe(250.0);  // overflow; observed max

  EXPECT_DOUBLE_EQ(h.percentile(0.75), 250.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 250.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 250.0);
  // Quantiles below the overflow bucket still interpolate finitely.
  EXPECT_LE(h.percentile(0.25), 1.0);
}

TEST_F(ObsMetrics, SamplesCarryP999AndBucketLayout) {
  auto& h = Registry::instance().histogram("t.p999", {1.0, 10.0});
  for (int i = 0; i < 500; ++i) h.observe(0.5);
  h.observe(5000.0);  // the tail event: p999 of 501 samples lands on it

  for (const MetricSample& s : Registry::instance().samples()) {
    if (s.name != "t.p999") continue;
    EXPECT_DOUBLE_EQ(s.p999, 5000.0);  // overflow bucket -> observed max
    EXPECT_LE(s.p50, 1.0);
    ASSERT_EQ(s.bucket_bounds.size(), 2u);
    ASSERT_EQ(s.bucket_counts.size(), 3u);  // bounds + overflow
    EXPECT_EQ(s.bucket_counts[0], 500u);
    EXPECT_EQ(s.bucket_counts[2], 1u);
    return;
  }
  FAIL() << "t.p999 not found in samples()";
}

TEST_F(ObsMetrics, RegistryReferencesSurviveReset) {
  Counter& c = Registry::instance().counter("t.stable");
  c.add(5);
  Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the cached reference must still be live and registered
  EXPECT_EQ(Registry::instance().counter("t.stable").value(), 2u);
  EXPECT_EQ(&Registry::instance().counter("t.stable"), &c);
}

TEST_F(ObsMetrics, SamplesReportEveryInstrumentKind) {
  Registry::instance().counter("t.s.counter").add(3);
  Registry::instance().gauge("t.s.gauge").set(7.0);
  Registry::instance().histogram("t.s.hist", {1.0, 2.0}).observe(1.5);

  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const MetricSample& s : Registry::instance().samples()) {
    if (s.name == "t.s.counter") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricSample::Kind::Counter);
      EXPECT_DOUBLE_EQ(s.value, 3.0);
    } else if (s.name == "t.s.gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(s.value, 7.0);
    } else if (s.name == "t.s.hist") {
      saw_hist = true;
      EXPECT_EQ(s.count, 1u);
      EXPECT_DOUBLE_EQ(s.sum, 1.5);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

TEST_F(ObsMetrics, ConcurrentIncrementsLoseNothing) {
  Counter& c = Registry::instance().counter("t.mt.counter");
  Histogram& h = Registry::instance().histogram("t.mt.hist", {0.5, 1.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(1.0);
        add_flops(KernelOp::Gemm, Precision::FP32, 2);
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.sum(), static_cast<double>(kThreads) * kPerThread, 1e-6);
  EXPECT_EQ(flop_snapshot().flops_at(Precision::FP32),
            2ull * kThreads * kPerThread);
}

TEST_F(ObsMetrics, FlopLedgerAttributesByPrecisionAndOp) {
  add_flops(KernelOp::Potrf, Precision::FP64, 100);
  add_flops(KernelOp::Gemm, Precision::FP16, 40);
  add_flops(KernelOp::Gemm, Precision::FP16, 2);

  const FlopSnapshot s = flop_snapshot();
  const auto p64 = static_cast<std::size_t>(Precision::FP64);
  const auto p16 = static_cast<std::size_t>(Precision::FP16);
  const auto potrf = static_cast<std::size_t>(KernelOp::Potrf);
  const auto gemm = static_cast<std::size_t>(KernelOp::Gemm);
  EXPECT_EQ(s.flops[p64][potrf], 100u);
  EXPECT_EQ(s.calls[p64][potrf], 1u);
  EXPECT_EQ(s.flops[p16][gemm], 42u);
  EXPECT_EQ(s.calls[p16][gemm], 2u);
  EXPECT_EQ(s.total_flops(), 142u);
  EXPECT_EQ(s.flops_at(Precision::FP32), 0u);
}

TEST_F(ObsMetrics, ConversionMatrixTracksPairs) {
  add_conversion(Precision::FP64, Precision::FP32, 4096);
  add_conversion(Precision::FP64, Precision::FP32, 4096);
  add_conversion(Precision::FP32, Precision::FP64, 64);

  const FlopSnapshot s = flop_snapshot();
  const auto p64 = static_cast<std::size_t>(Precision::FP64);
  const auto p32 = static_cast<std::size_t>(Precision::FP32);
  EXPECT_EQ(s.conv_count[p64][p32], 2u);
  EXPECT_EQ(s.conv_elems[p64][p32], 8192u);
  EXPECT_EQ(s.conv_count[p32][p64], 1u);
  EXPECT_EQ(s.total_conversions(), 3u);
  EXPECT_EQ(s.total_converted_elems(), 8256u);
}

TEST_F(ObsMetrics, SnapshotDeltaIsElementwise) {
  add_flops(KernelOp::Syrk, Precision::FP64, 10);
  const FlopSnapshot before = flop_snapshot();
  add_flops(KernelOp::Syrk, Precision::FP64, 7);
  add_conversion(Precision::FP64, Precision::BF16, 9);

  const FlopSnapshot d = flop_snapshot().delta_since(before);
  EXPECT_EQ(d.total_flops(), 7u);
  EXPECT_EQ(d.total_conversions(), 1u);
  EXPECT_EQ(d.total_converted_elems(), 9u);
}

TEST_F(ObsMetrics, ScopedTimerRecordsIntoHistogram) {
  {
    ScopedTimer t("t.timer.seconds");
    volatile double x = 0.0;
    for (int i = 0; i < 1000; ++i) x = x + 1.0;
  }
  Histogram& h = Registry::instance().histogram("t.timer.seconds");
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
  EXPECT_LT(h.sum(), 10.0);  // finished promptly
}

TEST_F(ObsMetrics, PhaseSpansLandOnPipelineRow) {
  { const ScopedPhase p(Phase::Assemble); }
  { const ScopedPhase p(Phase::Factorize); }
  // Each phase observes its registry histogram, in every build.
  EXPECT_EQ(phase_histogram(Phase::Assemble).count(), 1u);
  EXPECT_EQ(&phase_histogram(Phase::Assemble),
            &Registry::instance().histogram("assemble.seconds"));
  EXPECT_EQ(phase_histogram(Phase::Factorize).count(), 1u);
  EXPECT_GE(phase_histogram(Phase::Factorize).sum(), 0.0);
  EXPECT_EQ(phase_histogram(Phase::Solve).count(), 0u);
  // Each phase is also one flight event on this thread, drawn on the
  // pipeline row; a GSX_TELEMETRY=OFF build records no event, so its trace
  // has no phase.
  const std::vector<std::string> lines = test::flight_trace_lines();
  std::ptrdiff_t assemble = -1;
  std::ptrdiff_t factorize = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("\"cat\": \"phase\"") == std::string::npos) continue;
    EXPECT_NE(lines[i].find("\"tid\": 999}"), std::string::npos) << lines[i];
    if (lines[i].find("\"name\": \"assemble\"") != std::string::npos)
      assemble = static_cast<std::ptrdiff_t>(i);
    if (lines[i].find("\"name\": \"factorize\"") != std::string::npos)
      factorize = static_cast<std::ptrdiff_t>(i);
  }
  if (!test::kFlightRecords) {
    EXPECT_EQ(assemble, -1);
    EXPECT_EQ(factorize, -1);
    return;
  }
  ASSERT_GE(assemble, 0);
  EXPECT_GT(factorize, assemble);  // recording order
}

TEST_F(ObsMetrics, AnnotationIsDrainedOnce) {
  annotate_task(Precision::FP16, 12, 777);
  const auto a = take_task_annotation();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->precision, Precision::FP16);
  EXPECT_EQ(a->rank, 12);
  EXPECT_EQ(a->flops, 777u);
  EXPECT_FALSE(take_task_annotation().has_value());

  // What a task's finish event carries survives the packed round trip.
  const auto packed = unpack_annotation(pack_annotation(*a));
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(packed->precision, Precision::FP16);
  EXPECT_EQ(packed->rank, 12);
  EXPECT_EQ(packed->flops, 777u);
}

TEST_F(ObsMetrics, IterationRecordsCaptureDeltaAndTiles) {
  begin_iteration("evaluate");
  add_flops(KernelOp::Potrf, Precision::FP64, 50);
  TileMix mix;
  mix.dense[static_cast<std::size_t>(Precision::FP64)] = 3;
  mix.lr32 = 2;
  const std::size_t ranks[] = {4, 4, 8};
  record_iteration_tiles(mix, ranks);
  end_iteration();

  // Work outside any iteration must not leak into the record.
  add_flops(KernelOp::Potrf, Precision::FP64, 1000);

  begin_iteration("predict");
  add_flops(KernelOp::Krige, Precision::FP64, 9);
  end_iteration();

  const auto its = profile_iterations();
  ASSERT_EQ(its.size(), 2u);
  EXPECT_EQ(its[0].index, 0u);
  EXPECT_EQ(its[0].label, "evaluate");
  EXPECT_EQ(its[0].work.total_flops(), 50u);
  EXPECT_EQ(its[0].tiles.total(), 5u);
  EXPECT_EQ(its[0].rank_counts.at(4), 2u);
  EXPECT_EQ(its[0].rank_counts.at(8), 1u);
  EXPECT_GE(its[0].seconds, 0.0);
  EXPECT_EQ(its[1].label, "predict");
  EXPECT_EQ(its[1].work.total_flops(), 9u);
}

TEST_F(ObsMetrics, ReportWritersEmitExpectedStructure) {
  Registry::instance().counter("t.report.counter").add(11);
  begin_iteration("evaluate");
  add_flops(KernelOp::Gemm, Precision::FP32, 128);
  add_conversion(Precision::FP64, Precision::FP32, 256);
  TileMix mix;
  mix.dense[static_cast<std::size_t>(Precision::FP32)] = 1;
  mix.lr64 = 1;
  const std::size_t ranks[] = {6};
  record_iteration_tiles(mix, ranks);
  end_iteration();
  { const ScopedPhase p(Phase::Factorize); }

  const std::string jpath = "/tmp/gsx_obs_report_test.json";
  const std::string cpath = "/tmp/gsx_obs_report_test.csv";
  write_profile_json(jpath);
  write_flops_csv(cpath);

  const std::string json = slurp(jpath);
  EXPECT_NE(json.find("\"flops_by_precision\""), std::string::npos);
  EXPECT_NE(json.find("\"FP32\""), std::string::npos);
  EXPECT_NE(json.find("\"FP64->FP32\""), std::string::npos);
  EXPECT_NE(json.find("\"rank_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"6\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"factorize\""), std::string::npos);
  EXPECT_NE(json.find("t.report.counter"), std::string::npos);

  const std::string csv = slurp(cpath);
  EXPECT_EQ(csv.rfind("iteration,label,kernel,precision,calls,flops", 0), 0u);
  EXPECT_NE(csv.find("0,evaluate,gemm,FP32,1,128"), std::string::npos);
  EXPECT_NE(csv.find("FP64->FP32"), std::string::npos);

  std::remove(jpath.c_str());
  std::remove(cpath.c_str());
}

TEST_F(ObsMetrics, ProfileReportsUnattributedIterationTime) {
  // One iteration: 10 ms inside a phase span, then 10 ms outside any.
  begin_iteration("evaluate");
  {
    const ScopedPhase p(Phase::Assemble);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  end_iteration();
  const double iteration_s = profile_iterations().at(0).seconds;

  const std::string path =
      (std::filesystem::temp_directory_path() / "gsx_obs_unattributed_test.json").string();
  write_profile_json(path);
  const std::string json = slurp(path);
  std::remove(path.c_str());
  const std::string key = "\"unattributed_seconds\": ";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  const double unattributed = std::strtod(json.c_str() + at + key.size(), nullptr);
  EXPECT_GE(unattributed, 0.009);
  EXPECT_LE(unattributed, iteration_s - 0.009);
}

TEST_F(ObsMetrics, ProfileTraceCoversPhasesAndAnnotatedTasks) {
  // A pipeline phase plus an annotated kernel task, recorded as a profiled
  // factorization records them (directly, so the writer is tested in every
  // build): phases on the pipeline row, tasks on worker rows named by op
  // kind with precision/rank/flops args.
  flight_record(EventKind::Phase, 0, static_cast<std::uint64_t>(Phase::Assemble), 0, 0.001);
  const std::uint64_t ident = task_ident(0xBEEF, 3, 0);
  flight_record(EventKind::TaskBegin, 0, ident, pack_op_name("gemm"), 0.0);
  flight_record(EventKind::TaskFinish, 0, ident,
                pack_annotation({Precision::FP32, 7, 512}), 0.0);

  const std::vector<std::string> lines = test::flight_trace_lines();
  std::string content;
  for (const std::string& line : lines) content += line + "\n";
  EXPECT_EQ(content.front(), '[');
  EXPECT_EQ(content[content.size() - 2], ']');
  // Pipeline row is named via a thread_name metadata event.
  EXPECT_NE(content.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(content.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(content.find("pipeline"), std::string::npos);
  // The phase slice, on the pipeline row with its category.
  EXPECT_NE(content.find("\"name\": \"assemble\", \"cat\": \"phase\""), std::string::npos);
  // The task slice keeps its worker tid and kernel metadata.
  std::string slice;
  for (const std::string& line : lines)
    if (test::is_task_slice(line, 0xBEEF)) slice = line;
  EXPECT_NE(slice.find("\"name\": \"gemm\", \"cat\": \"task\""), std::string::npos) << slice;
  EXPECT_NE(slice.find("\"tid\": 3"), std::string::npos) << slice;
  EXPECT_NE(slice.find("\"precision\": \"FP32\""), std::string::npos) << slice;
  EXPECT_NE(slice.find("\"rank\": 7"), std::string::npos) << slice;
  EXPECT_NE(slice.find("\"flops\": 512"), std::string::npos) << slice;
}

TEST_F(ObsMetrics, ReportWriterRejectsUnwritablePath) {
  EXPECT_THROW(write_profile_json("/nonexistent-dir/x.json"), InvalidArgument);
  EXPECT_THROW(write_gantt_trace(ExecutionHistory{}, "/nonexistent-dir/x.trace.json"),
               InvalidArgument);
  EXPECT_THROW(write_flops_csv("/nonexistent-dir/x.csv"), InvalidArgument);
}

TEST_F(ObsMetrics, FlopFormulasMatchClosedForms) {
  EXPECT_EQ(potrf_flops(10), 10u * 10 * 10 / 3 + 10u * 10 / 2 + 10u / 6);
  EXPECT_EQ(trsm_flops(3, 5), 75u);
  EXPECT_EQ(syrk_flops(4, 7), 4u * 5 * 7);
  EXPECT_EQ(gemm_flops(2, 3, 4), 48u);
}

}  // namespace
}  // namespace gsx::obs
