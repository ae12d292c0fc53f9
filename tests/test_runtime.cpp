// Task-graph runtime: dependency semantics, scheduling, stress, errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "cholesky/tile_batch.hpp"
#include "common/error.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"
#include "runtime/task_graph.hpp"
#include "test_utils.hpp"

namespace gsx::rt {
namespace {

TEST(TaskGraph, EmptyGraphRuns) {
  TaskGraph g;
  g.run(2);
  EXPECT_EQ(g.stats().num_tasks, 0u);
}

TEST(TaskGraph, SingleTaskExecutes) {
  TaskGraph g;
  bool ran = false;
  g.submit("t", {}, [&] { ran = true; });
  g.run(1);
  EXPECT_TRUE(ran);
  EXPECT_EQ(g.stats().num_tasks, 1u);
}

TEST(TaskGraph, ReadAfterWriteOrdering) {
  TaskGraph g;
  int value = 0;
  int seen = -1;
  const auto d = DatumId::from_index(0);
  g.submit("writer", {{d, Access::Write}}, [&] { value = 42; });
  g.submit("reader", {{d, Access::Read}}, [&] { seen = value; });
  g.run(4);
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(g.stats().num_edges, 1u);
}

TEST(TaskGraph, WriteAfterReadOrdering) {
  TaskGraph g;
  int value = 1;
  std::vector<int> reads;
  std::mutex m;
  const auto d = DatumId::from_index(0);
  for (int i = 0; i < 4; ++i)
    g.submit("reader", {{d, Access::Read}}, [&] {
      std::lock_guard lk(m);
      reads.push_back(value);
    });
  g.submit("writer", {{d, Access::Write}}, [&] { value = 2; });
  g.run(4);
  ASSERT_EQ(reads.size(), 4u);
  for (int r : reads) EXPECT_EQ(r, 1) << "write must wait for all readers";
}

TEST(TaskGraph, WriteAfterWriteOrdering) {
  TaskGraph g;
  std::vector<int> order;
  const auto d = DatumId::from_index(5);
  for (int i = 0; i < 8; ++i)
    g.submit("w" + std::to_string(i), {{d, Access::ReadWrite}},
             [&order, i] { order.push_back(i); });
  g.run(4);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i) << "RW chain must serialize in order";
}

TEST(TaskGraph, IndependentTasksAllRun) {
  TaskGraph g;
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) g.submit("t", {}, [&] { ++count; });
  g.run(8);
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(g.stats().num_edges, 0u);
}

TEST(TaskGraph, DiamondDependency) {
  TaskGraph g;
  const auto a = DatumId::from_index(1);
  const auto b = DatumId::from_index(2);
  const auto c = DatumId::from_index(3);
  std::vector<char> order;
  std::mutex m;
  auto rec = [&](char ch) {
    std::lock_guard lk(m);
    order.push_back(ch);
  };
  g.submit("top", {{a, Access::Write}}, [&] { rec('T'); });
  g.submit("left", {{a, Access::Read}, {b, Access::Write}}, [&] { rec('L'); });
  g.submit("right", {{a, Access::Read}, {c, Access::Write}}, [&] { rec('R'); });
  g.submit("bottom", {{b, Access::Read}, {c, Access::Read}}, [&] { rec('B'); });
  g.run(4);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 'T');
  EXPECT_EQ(order.back(), 'B');
  EXPECT_EQ(g.stats().critical_path_tasks, 3u);
}

TEST(TaskGraph, PriorityOrderWithSingleWorker) {
  TaskGraph g;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    g.submit("p" + std::to_string(i), {}, [&order, i] { order.push_back(i); }, i);
  g.run(1);
  // Highest priority first.
  const std::vector<int> expect = {4, 3, 2, 1, 0};
  EXPECT_EQ(order, expect);
}

// The tile Cholesky DAG: the same accesses and priorities as
// cholesky::run_cholesky_dag, one GEMM task per <= kGemmBatchMax chunk of
// each (n, k) panel column. `make_body()` supplies each task's body, called
// once per task in submission order.
template <class MakeBody>
void submit_cholesky_dag(TaskGraph& g, std::size_t nt, MakeBody make_body) {
  const auto id = [nt](std::size_t i, std::size_t j) { return DatumId::from_index(i * nt + j); };
  for (std::size_t k = 0; k < nt; ++k) {
    const int base = 3 * static_cast<int>(nt - k);
    g.submit("potrf", {{id(k, k), Access::ReadWrite}}, make_body(), base + 2);
    for (std::size_t m = k + 1; m < nt; ++m)
      g.submit("trsm", {{id(k, k), Access::Read}, {id(m, k), Access::ReadWrite}}, make_body(),
               base + 1);
    for (std::size_t m = k + 1; m < nt; ++m)
      g.submit("syrk", {{id(m, k), Access::Read}, {id(m, m), Access::ReadWrite}}, make_body(),
               base);
    for (std::size_t n = k + 1; n < nt; ++n)
      for (std::size_t m0 = n + 1; m0 < nt; m0 += cholesky::kGemmBatchMax) {
        std::vector<Dep> deps{{id(n, k), Access::Read}};
        for (std::size_t m = m0; m < std::min(nt, m0 + cholesky::kGemmBatchMax); ++m) {
          deps.push_back({id(m, k), Access::Read});
          deps.push_back({id(m, n), Access::ReadWrite});
        }
        g.submit("gemm", deps, make_body(), base);
      }
  }
}

// The one-worker order of the tile Cholesky DAG. Each body appends its task
// index; the FNV-1a of that order pins the ready heap's order: higher
// priority first, then lower submission index.
std::uint64_t cholesky_dag_order_hash(std::size_t nt, std::size_t expect_tasks) {
  TaskGraph g;
  std::vector<std::size_t> order;
  submit_cholesky_dag(g, nt, [&g, &order] {
    const std::size_t task = g.size();
    return [&order, task] { order.push_back(task); };
  });
  EXPECT_EQ(g.size(), expect_tasks);
  g.run(1);
  EXPECT_EQ(order.size(), g.size());
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the 8-byte indices
  for (const std::size_t task : order)
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(task) >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  return h;
}

// nt = 16: one GEMM chunk per (n, k).
TEST(TaskGraph, CholeskyDagOrderOnOneWorkerIsPinned) {
  static_assert(cholesky::kGemmBatchMax >= 16);
  EXPECT_EQ(cholesky_dag_order_hash(16, 361), 0x9ec233d478772e2aull);
}

// nt = 40: the panel columns n <= 6 of each k split into two GEMM chunks.
TEST(TaskGraph, ChunkedCholeskyDagOrderOnOneWorkerIsPinned) {
  static_assert(cholesky::kGemmBatchMax < 39);
  EXPECT_EQ(cholesky_dag_order_hash(40, 2362), 0xb8e2591449aebc18ull);
}

TEST(TaskGraph, TaskExceptionPropagates) {
  TaskGraph g;
  const auto d = DatumId::from_index(0);
  g.submit("boom", {{d, Access::Write}}, [] { throw NumericalError("boom"); });
  std::atomic<bool> dependent_ran{false};
  g.submit("after", {{d, Access::Read}}, [&] { dependent_ran = true; });
  EXPECT_THROW(g.run(2), NumericalError);
  EXPECT_FALSE(dependent_ran.load()) << "tasks after the failure must not run bodies";
}

TEST(TaskGraph, StressChainedReductionIsDeterministic) {
  // 200 tasks incrementally transform a value through RAW chains over 16
  // data; any race or mis-ordering changes the result.
  constexpr int kData = 16;
  constexpr int kTasks = 200;
  std::vector<long> values(kData, 1);
  TaskGraph g;
  for (int t = 0; t < kTasks; ++t) {
    const int src = t % kData;
    const int dst = (t * 7 + 3) % kData;
    g.submit("mix", {{DatumId::from_index(src), Access::Read},
                     {DatumId::from_index(dst), Access::ReadWrite}},
             [&values, src, dst] { values[dst] = values[dst] * 3 + values[src]; });
  }
  g.run(8);
  // Oracle: sequential execution in submission order.
  std::vector<long> oracle(kData, 1);
  for (int t = 0; t < kTasks; ++t) {
    const int src = t % kData;
    const int dst = (t * 7 + 3) % kData;
    oracle[dst] = oracle[dst] * 3 + oracle[src];
  }
  EXPECT_EQ(values, oracle);
}

TEST(TaskGraph, StatsAccounting) {
  TaskGraph g;
  const auto d = DatumId::from_index(0);
  for (int i = 0; i < 10; ++i)
    g.submit("t", {{d, Access::ReadWrite}}, [] {});
  g.run(2);
  EXPECT_EQ(g.stats().num_tasks, 10u);
  EXPECT_EQ(g.stats().num_edges, 9u);
  EXPECT_EQ(g.stats().critical_path_tasks, 10u);
  EXPECT_GT(g.stats().makespan_seconds, 0.0);
}

/// The most recent graph in this process's flight history: the run the
/// calling test just made (empty in a GSX_TELEMETRY=OFF build).
obs::GraphExec latest_graph() {
  obs::ExecutionHistory h = obs::build_history(obs::FlightRecorder::instance().snapshot());
  if (h.graphs.empty()) return {};
  return std::move(h.graphs.back());
}

TEST(TaskGraph, ProfiledRunRecordsOneSpanPerTask) {
  obs::set_enabled(true);
  TaskGraph g;
  for (int i = 0; i < 7; ++i) g.submit("traced" + std::to_string(i), {}, [] {});
  g.run(3);
  obs::set_enabled(false);
  EXPECT_EQ(g.stats().num_tasks, 7u);
  const std::uint64_t gen = latest_graph().generation;

  // The Chrome trace holds one task slice per task of this run, on its
  // worker's row; a GSX_TELEMETRY=OFF build records none.
  std::size_t slices = 0;
  for (const std::string& line : test::flight_trace_lines()) {
    if (!test::is_task_slice(line, gen)) continue;
    ++slices;
    EXPECT_NE(line.find("\"name\": \"traced"), std::string::npos) << line;
    EXPECT_LT(test::trace_number(line, "\"tid\": "), 3.0) << line;
  }
  EXPECT_EQ(slices, test::kFlightRecords ? 7u : 0u);
}

TEST(TaskGraph, ProfiledRunDrainsAnnotationPerTask) {
  obs::set_enabled(true);
  TaskGraph g;
  g.submit("noted", {}, [] { obs::annotate_task(Precision::FP16, 5, 99); });
  g.submit("plain", {}, [] {});
  g.run(1);
  obs::set_enabled(false);
  // The one worker is this thread: the run left its slot empty.
  EXPECT_FALSE(obs::take_task_annotation().has_value());
  const obs::GraphExec run = latest_graph();
  if (!test::kFlightRecords) {
    EXPECT_TRUE(run.tasks.empty());
    return;
  }
  ASSERT_EQ(run.tasks.size(), 2u);
  const obs::TaskExec& annotated = run.tasks.at(0);
  EXPECT_EQ(annotated.op, "noted");
  ASSERT_TRUE(annotated.annotation.has_value());
  EXPECT_EQ(annotated.annotation->precision, Precision::FP16);
  EXPECT_EQ(annotated.annotation->rank, 5);
  EXPECT_EQ(annotated.annotation->flops, 99u);
  // The slot is drained per task: no annotation may leak across tasks.
  EXPECT_EQ(run.tasks.at(1).op, "plain");
  EXPECT_FALSE(run.tasks.at(1).annotation.has_value());
}

#ifndef GSX_TELEMETRY_DISABLED
// The dense Cholesky DAG at nt = 32 has 1,489 tasks and 7,813 edges: more
// edges than a 4096-slot ring holds. Its history is two events per task on
// the workers' rings, so the whole graph decodes and its as-executed
// critical path ends at the last task to finish.
TEST(TaskGraph, CholeskyDagHistoryIsComplete) {
  TaskGraph g;
  submit_cholesky_dag(g, 32, [] { return [] {}; });
  ASSERT_EQ(g.size(), 1489u);
  g.run(4);
  const obs::GraphExec run = latest_graph();
  ASSERT_EQ(run.tasks.size(), 1489u);
  const obs::CriticalPathReport cp = obs::critical_path(run);
  EXPECT_TRUE(cp.complete);
  ASSERT_FALSE(cp.path.empty());
  const auto last = std::max_element(run.tasks.begin(), run.tasks.end(),
                                     [](const auto& a, const auto& b) {
                                       return a.second.end < b.second.end;
                                     });
  EXPECT_EQ(run.tasks.at(cp.path.back()).end, last->second.end);
  EXPECT_EQ(cp.path.front(), 0u);  // the chain starts at the first potrf
  for (std::size_t i = 1; i < cp.path.size(); ++i)
    EXPECT_EQ(run.tasks.at(cp.path[i]).releaser, cp.path[i - 1]);
}

// An external task is released by whichever of its two conditions comes
// last: its predecessors' completion or its notify(). Here the predecessor
// finishes first and a later task delivers the notification, so the
// external records no releaser, and the as-executed chain stops at it.
TEST(TaskGraph, LateNotifyReleasesExternalTask) {
  TaskGraph g;
  const auto d = DatumId::from_index(0);
  const auto e = DatumId::from_index(1);
  const std::size_t pred = g.submit("pred", {{d, Access::Write}}, [] {}, 2);
  const std::size_t ext = g.submit_external("recv", {{d, Access::Read}, {e, Access::Write}});
  g.submit("notifier", {{d, Access::Read}}, [&g, ext] { g.notify(ext); }, 1);
  const std::size_t last = g.submit("after", {{e, Access::Read}}, [] {}, 0);
  g.run(1);
  const obs::GraphExec run = latest_graph();
  ASSERT_EQ(run.tasks.size(), 4u);
  EXPECT_FALSE(run.tasks.at(ext).releaser.has_value());
  EXPECT_EQ(run.tasks.at(last).releaser, ext);
  const obs::CriticalPathReport cp = obs::critical_path(run);
  EXPECT_TRUE(cp.complete);
  // Not {pred, ext, last}: pred's completion did not release the external.
  EXPECT_EQ(cp.path, (std::vector<std::uint64_t>{ext, last}));
  EXPECT_TRUE(run.tasks.at(pred).finished);
}
#endif

TEST(TaskGraph, ExecutionOrderIsTopological) {
  TaskGraph g;
  const auto d = DatumId::from_index(0);
  std::vector<std::size_t> order;  // the chain serializes the appends
  for (std::size_t i = 0; i < 20; ++i)
    g.submit("c", {{d, Access::ReadWrite}}, [&order, i] { order.push_back(i); });
  g.run(4);
  ASSERT_EQ(order.size(), 20u);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
      << "a single RW chain must execute in submission order";
}

TEST(TaskGraph, RejectsNullBody) {
  TaskGraph g;
  EXPECT_THROW(g.submit("null", {}, nullptr), InvalidArgument);
}

TEST(TaskGraph, ReadWriteChainsMatchSequentialOracle) {
  constexpr int kData = 8;
  constexpr int kTasks = 150;
  // Unsigned, so the 7x recurrence wraps (defined) instead of overflowing.
  std::vector<std::uint64_t> values(kData, 1);
  TaskGraph g;
  for (int t = 0; t < kTasks; ++t) {
    const int src = (t * 3) % kData;
    const int dst = (t * 5 + 1) % kData;
    g.submit("ws", {{DatumId::from_index(src), Access::Read},
                    {DatumId::from_index(dst), Access::ReadWrite}},
             [&values, src, dst] { values[dst] = values[dst] * 7 + values[src]; });
  }
  g.run(4);
  std::vector<std::uint64_t> oracle(kData, 1);
  for (int t = 0; t < kTasks; ++t) {
    const int src = (t * 3) % kData;
    const int dst = (t * 5 + 1) % kData;
    oracle[dst] = oracle[dst] * 7 + oracle[src];
  }
  EXPECT_EQ(values, oracle);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(0, 100, 4, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, 4, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, 2, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 10, 3,
                   [](std::size_t i) {
                     if (i == 5) throw NumericalError("inner failure");
                   }),
      NumericalError);
}

TEST(ParallelFor, SingleWorkerSequential) {
  std::vector<std::size_t> order;
  parallel_for(3, 9, 1, [&](std::size_t i) { order.push_back(i); });
  const std::vector<std::size_t> expect = {3, 4, 5, 6, 7, 8};
  EXPECT_EQ(order, expect);
}

#ifndef GSX_TELEMETRY_DISABLED
// The packed TaskBegin/TaskFinish identities carry 8-bit worker lanes (0xFF
// reserved for externals): a run with more workers than the field can hold
// must skip the task events entirely — worker 255 would otherwise
// masquerade as an external task. Such a run records no task events at
// all, and it still completes.
TEST(TaskGraph, OversizedWorkerCountSkipsPackedDagEvents) {
  const auto count = [](gsx::obs::EventKind k) {
    std::size_t n = 0;
    for (const gsx::obs::Event& e : gsx::obs::FlightRecorder::instance().snapshot())
      if (e.kind == k) ++n;
    return n;
  };

  // Control: an in-range worker count records the packed task history.
  {
    const std::size_t begin_before = count(gsx::obs::EventKind::TaskBegin);
    TaskGraph g;
    std::atomic<int> ran{0};
    const auto d = DatumId::from_index(0);
    g.submit("a()", {{d, Access::Write}}, [&] { ++ran; });
    g.submit("b()", {{d, Access::Read}}, [&] { ++ran; });
    g.run(2);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_GT(count(gsx::obs::EventKind::TaskBegin), begin_before);
  }

  // 300 workers overflow the 8-bit lane field: no new TaskBegin/TaskFinish
  // events (older ones may age out of the ring, hence LE), and the graph
  // still executes.
  {
    const std::size_t begin_before = count(gsx::obs::EventKind::TaskBegin);
    const std::size_t finish_before = count(gsx::obs::EventKind::TaskFinish);
    TaskGraph g;
    std::atomic<int> ran{0};
    const auto d = DatumId::from_index(0);
    g.submit("a()", {{d, Access::Write}}, [&] { ++ran; });
    g.submit("b()", {{d, Access::Read}}, [&] { ++ran; });
    g.run(300);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_LE(count(gsx::obs::EventKind::TaskBegin), begin_before);
    EXPECT_LE(count(gsx::obs::EventKind::TaskFinish), finish_before);
  }
}
#endif

}  // namespace
}  // namespace gsx::rt
