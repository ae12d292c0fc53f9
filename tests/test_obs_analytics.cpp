// Execution-analytics units: critical-path extraction, utilization /
// fairness, queue-wait and comm-overlap math on synthetic DAG histories with
// hand-computed answers, plus the hardware-counter wrapper's graceful
// degradation when perf_event_open is denied (the normal state in CI
// containers). The offline gsx_obs subcommands and the in-process
// profile.json block both sit on exactly this code.
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analytics.hpp"
#include "obs/hwcounters.hpp"

namespace {

using gsx::obs::AnalyticsReport;
using gsx::obs::analytics_json;
using gsx::obs::analyze;
using gsx::obs::build_history;
using gsx::obs::comm_overlap;
using gsx::obs::CriticalPathReport;
using gsx::obs::critical_path;
using gsx::obs::ExecutionHistory;
using gsx::obs::kExternalWorker;
using gsx::obs::MergedEvent;
using gsx::obs::OverlapReport;
using gsx::obs::pack_annotation;
using gsx::obs::pack_op_name;
using gsx::obs::task_ident;
using gsx::obs::TaskAnnotation;
using gsx::obs::unpack_annotation;
using gsx::obs::unpack_op_name;
using gsx::obs::utilization;
using gsx::obs::UtilizationReport;

// --- synthetic-history builder ----------------------------------------------

struct HistoryBuilder {
  std::vector<MergedEvent> events;
  std::string process = "w0";
  std::uint64_t gen = 1;

  MergedEvent base(const std::string& kind, double t) const {
    MergedEvent e;
    e.kind = kind;
    e.t_wall = t;
    e.t = t;
    e.process = process;
    return e;
  }

  /// One task's task_begin/task_finish pair; `released_by` is the
  /// releasing predecessor's id, or -1 for a seed.
  void task(std::uint64_t id, const std::string& op, std::uint64_t worker,
            double start, double end, std::int64_t released_by = -1,
            std::uint64_t annotation = 0) {
    MergedEvent s = base("task_begin", start);
    s.a = task_ident(gen, worker, id);
    s.b = pack_op_name(op);
    s.v = static_cast<double>(released_by + 1);
    events.push_back(s);
    MergedEvent e = base("task_finish", end);
    e.a = task_ident(gen, worker, id);
    e.b = annotation;
    e.v = end - start;
    events.push_back(e);
  }

  void wire(double t, std::uint64_t bytes, bool recv) {
    MergedEvent e = base(recv ? "tile_recv" : "tile_send", t);
    e.b = bytes;
    events.push_back(e);
  }

  [[nodiscard]] ExecutionHistory history() const { return build_history(events); }
};

// --- op-name packing ---------------------------------------------------------

TEST(OpName, RoundTripStopsAtParen) {
  EXPECT_EQ(unpack_op_name(pack_op_name("gemm(1,2,3)")), "gemm");
  EXPECT_EQ(unpack_op_name(pack_op_name("potrf(0)")), "potrf");
  EXPECT_EQ(unpack_op_name(pack_op_name("recv")), "recv");
}

TEST(OpName, TruncatesAtEightBytes) {
  EXPECT_EQ(unpack_op_name(pack_op_name("a_very_long_task_name")), "a_very_l");
}

TEST(OpName, EmptyDecodesAsTask) { EXPECT_EQ(unpack_op_name(0), "task"); }

TEST(OpName, IdentFieldsPackAndMask) {
  const std::uint64_t a = task_ident(0x1FFFF, 0x1AB, 7);
  EXPECT_EQ(a >> 48, 0xFFFFu);          // generation truncates to 16 bits
  EXPECT_EQ((a >> 40) & 0xFF, 0xABu);   // worker truncates to 8 bits
  EXPECT_EQ(a & 0xFFFFFFFFFFull, 7u);
}

TEST(OpName, AnnotationPacksAndSaturates) {
  EXPECT_FALSE(unpack_annotation(0).has_value());  // no annotation
  const auto lr = unpack_annotation(pack_annotation({gsx::Precision::FP16, 12, 777}));
  ASSERT_TRUE(lr.has_value());
  EXPECT_EQ(lr->precision, gsx::Precision::FP16);
  EXPECT_EQ(lr->rank, 12);
  EXPECT_EQ(lr->flops, 777u);
  const auto dense = unpack_annotation(pack_annotation({gsx::Precision::FP64, -1, 0}));
  ASSERT_TRUE(dense.has_value());
  EXPECT_EQ(dense->precision, gsx::Precision::FP64);
  EXPECT_EQ(dense->rank, -1);
  // Out-of-range ranks and flops saturate instead of spilling into the
  // neighbouring fields.
  const auto big = unpack_annotation(
      pack_annotation({gsx::Precision::BF16, std::int64_t{1} << 30, ~std::uint64_t{0}}));
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->precision, gsx::Precision::BF16);
  EXPECT_EQ(big->rank, 0xFFFFE);
  EXPECT_EQ(big->flops, 0xFFFFFFFFFFu);
}

// --- critical path -----------------------------------------------------------

TEST(CriticalPath, DiamondPicksTheHeavyArm) {
  // 0 -> {1 heavy, 2 light} -> 3. The heavy arm finishes last, so it is
  // 3's releaser: the executed chain 0,1,3 = 1 + 2 + 1 = 4 s.
  HistoryBuilder b;
  b.task(0, "potrf(0)", 0, 0.0, 1.0);
  b.task(1, "trsm(1)", 0, 1.0, 3.0, 0);
  b.task(2, "trsm(2)", 1, 1.0, 2.0, 0);
  b.task(3, "gemm(3)", 1, 3.0, 4.0, 1);
  const CriticalPathReport r = critical_path(b.history());
  EXPECT_NEAR(r.length_seconds, 4.0, 1e-12);
  ASSERT_EQ(r.length_tasks, 3u);
  EXPECT_EQ(r.path, (std::vector<std::uint64_t>{0, 1, 3}));
  EXPECT_NEAR(r.span_seconds, 4.0, 1e-12);
  // 4 of 5 total task seconds sit on the path.
  EXPECT_NEAR(r.dominance, 4.0 / 5.0, 1e-12);
  EXPECT_NEAR(r.op_seconds.at("trsm"), 2.0, 1e-12);
  EXPECT_NEAR(r.op_seconds.at("potrf"), 1.0, 1e-12);
  EXPECT_NEAR(r.op_seconds.at("gemm"), 1.0, 1e-12);
  EXPECT_TRUE(r.complete);
}

TEST(CriticalPath, PureChainIsFullyDominant) {
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0);
  b.task(1, "b", 0, 1.0, 2.0, 0);
  b.task(2, "c", 0, 2.0, 3.0, 1);
  const CriticalPathReport r = critical_path(b.history());
  EXPECT_NEAR(r.length_seconds, 3.0, 1e-12);
  EXPECT_EQ(r.length_tasks, 3u);
  EXPECT_NEAR(r.dominance, 1.0, 1e-12);
}

TEST(CriticalPath, SeedsOnlyPathIsTheLastTaskToFinish) {
  // Without releasers (every task a seed) the chain is the last task to
  // finish alone, not a fabricated one.
  HistoryBuilder b;
  b.task(0, "late", 0, 3.0, 6.0);
  b.task(1, "long", 1, 0.0, 5.0);
  const CriticalPathReport r = critical_path(b.history());
  EXPECT_NEAR(r.length_seconds, 3.0, 1e-12);
  EXPECT_EQ(r.path, (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(r.complete);
}

TEST(CriticalPath, GenerationsSeparateConcurrentGraphs) {
  // Same task ids in two generations must not cross-link.
  HistoryBuilder b;
  b.gen = 1;
  b.task(0, "a", 0, 0.0, 1.0);
  b.task(1, "b", 0, 1.0, 2.0, 0);
  b.gen = 2;
  b.task(0, "c", 0, 0.0, 3.5);
  const ExecutionHistory h = b.history();
  ASSERT_EQ(h.graphs.size(), 2u);
  const CriticalPathReport r = critical_path(h);
  EXPECT_NEAR(r.length_seconds, 3.5, 1e-12);  // gen 2's lone heavy task wins
  EXPECT_EQ(r.generation, 2u);
}

TEST(CriticalPath, EmptyHistoryIsZero) {
  const CriticalPathReport r = critical_path(ExecutionHistory{});
  EXPECT_EQ(r.length_tasks, 0u);
  EXPECT_EQ(r.length_seconds, 0.0);
  EXPECT_FALSE(r.complete);
}

// --- history completeness ----------------------------------------------------

/// A committed fixture, decoded the way gsx_obs decodes it, with every line
/// containing `drop` (when non-empty) removed first.
ExecutionHistory fixture_history(const std::string& name, const std::string& drop = "") {
  std::ifstream in(GSX_TEST_FIXTURES "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::string jsonl;
  for (std::string line; std::getline(in, line);)
    if (drop.empty() || line.find(drop) == std::string::npos) jsonl += line + "\n";
  const auto merged = gsx::obs::merge_flight_dumps({gsx::obs::parse_flight_dump(jsonl)});
  return build_history(merged.timeline);
}

CriticalPathReport fixture_critical_path(const std::string& drop = "") {
  return critical_path(fixture_history("flight-analytics.jsonl", drop));
}

TEST(CriticalPath, FixtureHistoryIsComplete) {
  const CriticalPathReport r = fixture_critical_path();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.length_tasks, 3u);
  // potrf and gemm carry kernel annotations; the trsm tasks made none.
  const ExecutionHistory h = fixture_history("flight-analytics.jsonl");
  ASSERT_EQ(h.graphs.size(), 1u);
  const auto& tasks = h.graphs[0].tasks;
  ASSERT_TRUE(tasks.at(3).annotation.has_value());
  EXPECT_EQ(tasks.at(3).annotation->precision, gsx::Precision::FP32);
  EXPECT_EQ(tasks.at(3).annotation->rank, 7);
  EXPECT_EQ(tasks.at(3).annotation->flops, 4096u);
  EXPECT_FALSE(tasks.at(1).annotation.has_value());
}

TEST(CriticalPath, FixtureMissingOneEdgeIsIncomplete) {
  // Task 2's task_begin carries its edge from 0; without it the graph is
  // incomplete, though the executed chain 0 -> 1 -> 3 still decodes.
  const std::string begin_of_2 =
      "\"kind\":\"task_begin\",\"thread\":2,\"request\":0,\"trace\":0,\"a\":" +
      std::to_string(task_ident(1, 1, 2)) + ",";
  const CriticalPathReport r = fixture_critical_path(begin_of_2);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.length_tasks, 3u);
}

TEST(CriticalPath, OldFormatDumpDecodesNoTasks) {
  // The same diamond in the retired task_start/task_end/task_dep kinds.
  const ExecutionHistory h = fixture_history("flight-analytics-v1.jsonl");
  EXPECT_TRUE(h.graphs.empty());
  EXPECT_EQ(critical_path(h).length_tasks, 0u);
  EXPECT_EQ(h.comm.size(), 2u);
}

TEST(CriticalPath, LostTasksMakeTheHistoryIncomplete) {
  // Ids must run 0..n-1: a graph whose task 0 aged out is incomplete.
  HistoryBuilder gap;
  gap.task(1, "a", 0, 0.0, 1.0);
  gap.task(2, "b", 0, 1.0, 2.0);
  EXPECT_FALSE(critical_path(gap.history()).complete);

  // A task whose task_begin aged out is incomplete too.
  HistoryBuilder no_begin;
  no_begin.task(0, "a", 0, 0.0, 1.0);
  no_begin.events.erase(no_begin.events.begin());
  EXPECT_FALSE(critical_path(no_begin.history()).complete);

  // So is one naming a releaser the history does not hold.
  HistoryBuilder dangling;
  dangling.task(0, "a", 0, 0.0, 1.0);
  dangling.task(1, "b", 0, 1.0, 2.0, 7);
  EXPECT_FALSE(critical_path(dangling.history()).complete);
}

TEST(CriticalPath, CompleteGraphBeatsHeavierEdgelessGraph) {
  HistoryBuilder b;
  b.gen = 1;  // complete: 2 s chain
  b.task(0, "a", 0, 0.0, 1.0);
  b.task(1, "b", 0, 1.0, 2.0, 0);
  b.gen = 2;  // heavier, but the task_begin carrying 1's edge was lost
  b.task(0, "c", 0, 0.0, 5.0);
  b.task(1, "d", 0, 5.0, 6.0, 0);
  b.events.erase(b.events.end() - 2);
  const ExecutionHistory h = b.history();
  ASSERT_EQ(h.graphs.size(), 2u);
  const CriticalPathReport r = critical_path(h);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.generation, 1u);
  EXPECT_NEAR(r.length_seconds, 2.0, 1e-12);
}

// --- utilization -------------------------------------------------------------

TEST(Utilization, ForkJoinNumbersMatchHand) {
  // Window [0, 2]. Worker 0 busy [0,1] + [1,2] = 2 s; worker 1 busy [0,1].
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0);
  b.task(1, "b", 1, 0.0, 1.0);
  b.task(2, "c", 0, 1.0, 2.0, 1);
  const UtilizationReport u = utilization(b.history());
  EXPECT_NEAR(u.window_seconds, 2.0, 1e-12);
  ASSERT_EQ(u.workers.size(), 2u);
  EXPECT_NEAR(u.workers[0].busy_seconds, 2.0, 1e-12);
  EXPECT_NEAR(u.workers[0].utilization, 1.0, 1e-12);
  EXPECT_NEAR(u.workers[1].busy_seconds, 1.0, 1e-12);
  EXPECT_NEAR(u.workers[1].utilization, 0.5, 1e-12);
  // PE = (2+1)/(2 lanes * 2 s window); Jain = (2+1)^2 / (2 * (4+1)).
  EXPECT_NEAR(u.parallel_efficiency, 0.75, 1e-12);
  EXPECT_NEAR(u.jain_fairness, 9.0 / 10.0, 1e-12);
  EXPECT_NEAR(u.process_busy_seconds.at("w0"), 3.0, 1e-12);
}

TEST(Utilization, IdleGapBecomesQueueWait) {
  // Task 1's releaser finishes at 1.0 but it starts at 1.5: the 0.5 s gap
  // is scheduler-side queue wait on task 1's lane.
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0);
  b.task(1, "b", 1, 1.5, 2.5, 0);
  const UtilizationReport u = utilization(b.history());
  ASSERT_EQ(u.workers.size(), 2u);
  EXPECT_NEAR(u.workers[1].queue_wait_seconds, 0.5, 1e-12);
  EXPECT_NEAR(u.workers[0].queue_wait_seconds, 0.0, 1e-12);
}

TEST(Utilization, PerfectBalanceHasJainOne) {
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0);
  b.task(1, "b", 1, 0.0, 1.0);
  const UtilizationReport u = utilization(b.history());
  EXPECT_NEAR(u.jain_fairness, 1.0, 1e-12);
  EXPECT_NEAR(u.parallel_efficiency, 1.0, 1e-12);
}

TEST(Utilization, ExternalLaneExcluded) {
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0);
  b.task(1, "recv", kExternalWorker, 1.0, 1.0);  // zero-duration external
  const UtilizationReport u = utilization(b.history());
  ASSERT_EQ(u.workers.size(), 1u);
  EXPECT_EQ(u.workers[0].worker, 0u);
}

TEST(Utilization, OverlappingTasksOnOneLaneUnionNotSum) {
  // Nested/overlapping spans (external completion racing a worker) must not
  // produce >100% utilization: busy time is an interval union.
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 2.0);
  b.task(1, "b", 0, 1.0, 3.0);
  const UtilizationReport u = utilization(b.history());
  ASSERT_EQ(u.workers.size(), 1u);
  EXPECT_NEAR(u.workers[0].busy_seconds, 3.0, 1e-12);
  EXPECT_NEAR(u.workers[0].utilization, 1.0, 1e-12);
}

// --- comm overlap ------------------------------------------------------------

TEST(Overlap, WireEventsInsideBusyIntervalsCount) {
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0);
  b.wire(0.5, 100, false);  // during compute: overlapped
  b.wire(2.0, 300, true);   // after all compute: exposed
  const OverlapReport r = comm_overlap(b.history());
  EXPECT_EQ(r.comm_events, 2u);
  EXPECT_EQ(r.overlapped_events, 1u);
  EXPECT_EQ(r.bytes_total, 400u);
  EXPECT_EQ(r.bytes_overlapped, 100u);
  EXPECT_NEAR(r.overlap_fraction, 0.5, 1e-12);
}

TEST(Overlap, OtherProcessBusyDoesNotMask) {
  // w1's wire event at a time when only w0 computes is exposed comm.
  HistoryBuilder b;
  b.process = "w0";
  b.task(0, "a", 0, 0.0, 1.0);
  b.process = "w1";
  b.wire(0.5, 64, true);
  const OverlapReport r = comm_overlap(b.history());
  EXPECT_EQ(r.comm_events, 1u);
  EXPECT_EQ(r.overlapped_events, 0u);
}

// --- report plumbing ---------------------------------------------------------

TEST(AnalyticsJson, CarriesAllThreeSections) {
  HistoryBuilder b;
  b.task(0, "potrf(0)", 0, 0.0, 1.0);
  b.wire(0.5, 10, false);
  const AnalyticsReport r = analyze(b.history());
  const std::string json = analytics_json(r);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
  EXPECT_NE(json.find("\"overlap\""), std::string::npos);
  EXPECT_NE(json.find("\"op_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"complete\": true"), std::string::npos);
  EXPECT_EQ(json.find("\n\n"), std::string::npos);  // no blank lines
}

// --- hardware counters -------------------------------------------------------

TEST(HwCounters, DisabledSamplingReadsInvalid) {
  gsx::obs::set_hw_enabled(false);
  const gsx::obs::HwReading r = gsx::obs::hw_read();
  EXPECT_FALSE(r.valid);
}

TEST(HwCounters, UnavailableDegradesToCleanNoOp) {
  // In containers perf_event_open is typically denied; either way the
  // wrapper must never crash and must keep its live/available story
  // consistent with what it returns.
  gsx::obs::reset_hw();
  gsx::obs::set_hw_enabled(true);
  const gsx::obs::HwReading begin = gsx::obs::hw_read();
  const gsx::obs::HwReading end = gsx::obs::hw_read();
  if (!gsx::obs::hw_available()) {
    EXPECT_FALSE(begin.valid);
    gsx::obs::hw_accumulate(begin, end, 0.1);  // no-op on invalid readings
    const gsx::obs::HwTotals t = gsx::obs::hw_totals();
    EXPECT_FALSE(t.live);
    EXPECT_EQ(t.scopes, 0u);
    EXPECT_EQ(t.cycles, 0u);
  } else {
    EXPECT_TRUE(begin.valid);
    EXPECT_TRUE(end.valid);
    EXPECT_GE(end.cycles, begin.cycles);
    gsx::obs::hw_accumulate(begin, end, 0.1);
    const gsx::obs::HwTotals t = gsx::obs::hw_totals();
    EXPECT_TRUE(t.live);
    EXPECT_EQ(t.scopes, 1u);
  }
  gsx::obs::set_hw_enabled(false);
  gsx::obs::reset_hw();
}

TEST(HwCounters, InvalidAccumulateLeavesTotalsUntouched) {
  gsx::obs::reset_hw();
  gsx::obs::hw_accumulate({}, {}, 1.0);
  const gsx::obs::HwTotals t = gsx::obs::hw_totals();
  EXPECT_EQ(t.scopes, 0u);
  EXPECT_EQ(t.seconds, 0.0);
  EXPECT_FALSE(t.live);
}

TEST(HwCounters, RooflinePeaksRoundTrip) {
  gsx::obs::RooflinePeaks p;
  p.peak_gflops_per_ghz[0] = 16.0;
  p.fallback_ghz = 2.5;
  p.isa = "avx2";
  gsx::obs::set_roofline_peaks(p);
  const gsx::obs::RooflinePeaks q = gsx::obs::roofline_peaks();
  EXPECT_EQ(q.peak_gflops_per_ghz[0], 16.0);
  EXPECT_EQ(q.fallback_ghz, 2.5);
  EXPECT_EQ(q.isa, "avx2");
  gsx::obs::set_roofline_peaks(gsx::obs::RooflinePeaks{});
}

}  // namespace
