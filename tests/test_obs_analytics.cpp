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
using gsx::obs::dep_ident;
using gsx::obs::ExecutionHistory;
using gsx::obs::kExternalWorker;
using gsx::obs::MergedEvent;
using gsx::obs::OverlapReport;
using gsx::obs::pack_op_name;
using gsx::obs::task_ident;
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

  void task(std::uint64_t id, const std::string& op, std::uint64_t worker,
            double start, double end, std::size_t deps) {
    MergedEvent s = base("task_start", start);
    s.a = task_ident(gen, worker, id);
    s.b = pack_op_name(op);
    s.v = static_cast<double>(deps);
    events.push_back(s);
    MergedEvent e = base("task_end", end);
    e.a = task_ident(gen, worker, id);
    e.b = pack_op_name(op);
    e.v = end - start;
    events.push_back(e);
  }

  void dep(std::uint64_t pred, std::uint64_t succ) {
    MergedEvent e = base("task_dep", 0.0);
    e.a = dep_ident(gen, succ, pred);
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
  const std::uint64_t d = dep_ident(3, 0x123456, 0x654321);
  EXPECT_EQ(d >> 48, 3u);
  EXPECT_EQ((d >> 24) & 0xFFFFFF, 0x123456u);
  EXPECT_EQ(d & 0xFFFFFF, 0x654321u);
}

// --- critical path -----------------------------------------------------------

TEST(CriticalPath, DiamondPicksTheHeavyArm) {
  // 0 -> {1 heavy, 2 light} -> 3. Longest chain 0,1,3 = 1 + 2 + 1 = 4 s.
  HistoryBuilder b;
  b.task(0, "potrf(0)", 0, 0.0, 1.0, 0);
  b.task(1, "trsm(1)", 0, 1.0, 3.0, 1);
  b.task(2, "trsm(2)", 1, 1.0, 2.0, 1);
  b.task(3, "gemm(3)", 1, 3.0, 4.0, 2);
  b.dep(0, 1);
  b.dep(0, 2);
  b.dep(1, 3);
  b.dep(2, 3);
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
}

TEST(CriticalPath, PureChainIsFullyDominant) {
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0, 0);
  b.task(1, "b", 0, 1.0, 2.0, 1);
  b.task(2, "c", 0, 2.0, 3.0, 1);
  b.dep(0, 1);
  b.dep(1, 2);
  const CriticalPathReport r = critical_path(b.history());
  EXPECT_NEAR(r.length_seconds, 3.0, 1e-12);
  EXPECT_EQ(r.length_tasks, 3u);
  EXPECT_NEAR(r.dominance, 1.0, 1e-12);
}

TEST(CriticalPath, NoEdgesFallsBackToHeaviestTask) {
  // Ring wrap can lose the TaskDepEdge batch; the report degrades to the
  // single heaviest task instead of fabricating a chain.
  HistoryBuilder b;
  b.task(0, "small", 0, 0.0, 1.0, 0);
  b.task(1, "big", 1, 0.0, 5.0, 0);
  const CriticalPathReport r = critical_path(b.history());
  EXPECT_NEAR(r.length_seconds, 5.0, 1e-12);
  EXPECT_EQ(r.path, (std::vector<std::uint64_t>{1}));
}

TEST(CriticalPath, GenerationsSeparateConcurrentGraphs) {
  // Same task ids in two generations must not cross-link.
  HistoryBuilder b;
  b.gen = 1;
  b.task(0, "a", 0, 0.0, 1.0, 0);
  b.task(1, "b", 0, 1.0, 2.0, 1);
  b.dep(0, 1);
  b.gen = 2;
  b.task(0, "c", 0, 0.0, 3.5, 0);
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

/// The committed diamond fixture, decoded the way gsx_obs decodes it, with
/// every line containing `drop` (when non-empty) removed first.
CriticalPathReport fixture_critical_path(const std::string& drop = "") {
  std::ifstream in(GSX_TEST_FIXTURES "/flight-analytics.jsonl");
  EXPECT_TRUE(in.good());
  std::string jsonl;
  for (std::string line; std::getline(in, line);)
    if (drop.empty() || line.find(drop) == std::string::npos) jsonl += line + "\n";
  const auto merged = gsx::obs::merge_flight_dumps({gsx::obs::parse_flight_dump(jsonl)});
  return critical_path(build_history(merged.timeline));
}

TEST(CriticalPath, FixtureHistoryIsComplete) {
  const CriticalPathReport r = fixture_critical_path();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.length_tasks, 3u);
}

TEST(CriticalPath, FixtureMissingOneEdgeIsIncomplete) {
  // The task_dep for succ 3 <- pred 2: gemm(3) recorded 2 predecessors but
  // only the edge from 1 survives.
  const std::string edge_3_from_2 =
      "\"a\":" + std::to_string(dep_ident(1, 3, 2)) + ",";
  const CriticalPathReport r = fixture_critical_path(edge_3_from_2);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.length_tasks, 3u);  // 0 -> 1 -> 3 is still decodable
}

TEST(CriticalPath, LostTasksMakeTheHistoryIncomplete) {
  // Ids must run 0..n-1: a graph whose task 0 aged out is incomplete.
  HistoryBuilder gap;
  gap.task(1, "a", 0, 0.0, 1.0, 0);
  gap.task(2, "b", 0, 1.0, 2.0, 0);
  EXPECT_FALSE(critical_path(gap.history()).complete);

  // A worker task whose task_start aged out has no recorded dep count.
  HistoryBuilder no_start;
  no_start.task(0, "a", 0, 0.0, 1.0, 0);
  no_start.events.erase(no_start.events.begin());
  EXPECT_FALSE(critical_path(no_start.history()).complete);
}

TEST(CriticalPath, CompleteGraphBeatsHeavierEdgelessGraph) {
  HistoryBuilder b;
  b.gen = 1;  // complete: 2 s chain with its edge
  b.task(0, "a", 0, 0.0, 1.0, 0);
  b.task(1, "b", 0, 1.0, 2.0, 1);
  b.dep(0, 1);
  b.gen = 2;  // heavier, but its one edge was lost
  b.task(0, "c", 0, 0.0, 5.0, 0);
  b.task(1, "d", 0, 5.0, 6.0, 1);
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
  b.task(0, "a", 0, 0.0, 1.0, 0);
  b.task(1, "b", 1, 0.0, 1.0, 0);
  b.task(2, "c", 0, 1.0, 2.0, 2);
  b.dep(0, 2);
  b.dep(1, 2);
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
  // Task 1's only predecessor finishes at 1.0 but it starts at 1.5: the
  // 0.5 s gap is scheduler-side queue wait on task 1's lane.
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0, 0);
  b.task(1, "b", 1, 1.5, 2.5, 1);
  b.dep(0, 1);
  const UtilizationReport u = utilization(b.history());
  ASSERT_EQ(u.workers.size(), 2u);
  EXPECT_NEAR(u.workers[1].queue_wait_seconds, 0.5, 1e-12);
  EXPECT_NEAR(u.workers[0].queue_wait_seconds, 0.0, 1e-12);
}

TEST(Utilization, PerfectBalanceHasJainOne) {
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0, 0);
  b.task(1, "b", 1, 0.0, 1.0, 0);
  const UtilizationReport u = utilization(b.history());
  EXPECT_NEAR(u.jain_fairness, 1.0, 1e-12);
  EXPECT_NEAR(u.parallel_efficiency, 1.0, 1e-12);
}

TEST(Utilization, ExternalLaneExcluded) {
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0, 0);
  b.task(1, "recv", kExternalWorker, 1.0, 1.0, 0);  // zero-duration external
  const UtilizationReport u = utilization(b.history());
  ASSERT_EQ(u.workers.size(), 1u);
  EXPECT_EQ(u.workers[0].worker, 0u);
}

TEST(Utilization, OverlappingTasksOnOneLaneUnionNotSum) {
  // Nested/overlapping spans (external completion racing a worker) must not
  // produce >100% utilization: busy time is an interval union.
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 2.0, 0);
  b.task(1, "b", 0, 1.0, 3.0, 0);
  const UtilizationReport u = utilization(b.history());
  ASSERT_EQ(u.workers.size(), 1u);
  EXPECT_NEAR(u.workers[0].busy_seconds, 3.0, 1e-12);
  EXPECT_NEAR(u.workers[0].utilization, 1.0, 1e-12);
}

// --- comm overlap ------------------------------------------------------------

TEST(Overlap, WireEventsInsideBusyIntervalsCount) {
  HistoryBuilder b;
  b.task(0, "a", 0, 0.0, 1.0, 0);
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
  b.task(0, "a", 0, 0.0, 1.0, 0);
  b.process = "w1";
  b.wire(0.5, 64, true);
  const OverlapReport r = comm_overlap(b.history());
  EXPECT_EQ(r.comm_events, 1u);
  EXPECT_EQ(r.overlapped_events, 0u);
}

// --- report plumbing ---------------------------------------------------------

TEST(AnalyticsJson, CarriesAllThreeSections) {
  HistoryBuilder b;
  b.task(0, "potrf(0)", 0, 0.0, 1.0, 0);
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
