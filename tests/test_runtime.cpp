// Task-graph runtime: dependency semantics, scheduling, stress, errors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"
#include "runtime/task_graph.hpp"

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
  g.set_policy(SchedPolicy::Priority);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    g.submit("p" + std::to_string(i), {}, [&order, i] { order.push_back(i); }, i);
  g.run(1);
  // Highest priority first.
  const std::vector<int> expect = {4, 3, 2, 1, 0};
  EXPECT_EQ(order, expect);
}

TEST(TaskGraph, FifoOrderWithSingleWorker) {
  TaskGraph g;
  g.set_policy(SchedPolicy::Fifo);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    g.submit("f", {}, [&order, i] { order.push_back(i); }, 100 - i);
  g.run(1);
  const std::vector<int> expect = {0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect) << "FIFO ignores priorities";
}

TEST(TaskGraph, LifoOrderWithSingleWorker) {
  TaskGraph g;
  g.set_policy(SchedPolicy::Lifo);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) g.submit("l", {}, [&order, i] { order.push_back(i); });
  g.run(1);
  const std::vector<int> expect = {4, 3, 2, 1, 0};
  EXPECT_EQ(order, expect);
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

TEST(TaskGraph, ProfiledRunRecordsOneSpanPerTask) {
  obs::reset_trace();
  obs::set_enabled(true);
  TaskGraph g;
  for (int i = 0; i < 7; ++i) g.submit("traced" + std::to_string(i), {}, [] {});
  g.run(3);
  obs::set_enabled(false);
  const std::vector<obs::Span> spans = obs::trace_spans();
  obs::reset_trace();
  ASSERT_EQ(spans.size(), 7u);
  for (const obs::Span& s : spans) {
    EXPECT_EQ(s.category, "task");
    EXPECT_LE(s.start_seconds, s.end_seconds);
    EXPECT_LT(s.tid, 3u);
  }
}

TEST(TaskGraph, ProfiledRunDrainsAnnotationPerTask) {
  obs::reset_trace();
  obs::set_enabled(true);
  TaskGraph g;
  g.submit("annotated", {}, [] { obs::annotate_task(Precision::FP16, 5, 99); });
  g.submit("plain", {}, [] {});
  g.run(1);
  obs::set_enabled(false);
  const std::vector<obs::Span> spans = obs::trace_spans();
  obs::reset_trace();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "annotated");
  EXPECT_NE(spans[0].args.find("\"precision\": \"FP16\""), std::string::npos);
  EXPECT_NE(spans[0].args.find("\"rank\": 5"), std::string::npos);
  EXPECT_NE(spans[0].args.find("\"flops\": 99"), std::string::npos);
  // The slot is drained per task: no annotation may leak across tasks.
  EXPECT_EQ(spans[1].name, "plain");
  EXPECT_TRUE(spans[1].args.empty());
}

TEST(TaskGraph, ExecutionOrderIsTopological) {
  TaskGraph g;
  const auto d = DatumId::from_index(0);
  for (int i = 0; i < 20; ++i) g.submit("c", {{d, Access::ReadWrite}}, [] {});
  g.run(4);
  const auto& order = g.execution_order();
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

TEST(TaskGraph, WorkStealingMatchesSequentialOracle) {
  constexpr int kData = 8;
  constexpr int kTasks = 150;
  // Unsigned, so the 7x recurrence wraps (defined) instead of overflowing.
  std::vector<std::uint64_t> values(kData, 1);
  TaskGraph g;
  g.set_policy(SchedPolicy::WorkStealing);
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

TEST(TaskGraph, WorkStealingStealsWhenImbalanced) {
  // All initial work lands on one deque hint; other workers must steal.
  TaskGraph g;
  g.set_policy(SchedPolicy::WorkStealing);
  std::atomic<int> count{0};
  // A single chain head whose completion releases many independent tasks:
  // the finishing worker inherits them all, others steal.
  const auto d = DatumId::from_index(0);
  g.submit("head", {{d, Access::Write}}, [&] { ++count; });
  for (int i = 0; i < 64; ++i)
    g.submit("leaf", {{d, Access::Read}}, [&] {
      volatile double x = 0;
      for (int k = 0; k < 20000; ++k) x = x + 1.0;
      ++count;
    });
  g.run(4);
  EXPECT_EQ(count.load(), 65);
  EXPECT_EQ(g.stats().num_tasks, 65u);
  // On a multi-worker run with one hot deque, steals should occur; at the
  // very least the counter must be consistent (<= tasks).
  EXPECT_LE(g.stats().steals, g.stats().num_tasks);
}

TEST(TaskGraph, WorkStealingSingleWorkerIsLifoOnOwnDeque) {
  TaskGraph g;
  g.set_policy(SchedPolicy::WorkStealing);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) g.submit("t", {}, [&order, i] { order.push_back(i); });
  g.run(1);
  // All tasks seed the single deque (round-robin over 1 worker); the owner
  // pops from the back.
  const std::vector<int> expect = {4, 3, 2, 1, 0};
  EXPECT_EQ(order, expect);
  EXPECT_EQ(g.stats().steals, 0u);
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
// The packed TaskStart/TaskEnd/TaskDepEdge identities carry 8-bit worker
// lanes (0xFF reserved for externals): a run with more workers than the
// field can hold must skip the DAG-history events entirely — worker 255
// would otherwise masquerade as an external task. Such a run records no
// task events at all, and it still completes.
TEST(TaskGraph, OversizedWorkerCountSkipsPackedDagEvents) {
  const auto count = [](gsx::obs::EventKind k) {
    std::size_t n = 0;
    for (const gsx::obs::Event& e : gsx::obs::FlightRecorder::instance().snapshot())
      if (e.kind == k) ++n;
    return n;
  };

  // Control: an in-range worker count records the packed DAG history.
  {
    const std::size_t start_before = count(gsx::obs::EventKind::TaskStart);
    TaskGraph g;
    std::atomic<int> ran{0};
    const auto d = DatumId::from_index(0);
    g.submit("a()", {{d, Access::Write}}, [&] { ++ran; });
    g.submit("b()", {{d, Access::Read}}, [&] { ++ran; });
    g.run(2);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_GT(count(gsx::obs::EventKind::TaskStart), start_before);
  }

  // 300 workers overflow the 8-bit lane field: no new TaskStart/TaskEnd/
  // TaskDepEdge events (older ones may age out of the ring, hence LE), and
  // the graph still executes.
  {
    const std::size_t start_before = count(gsx::obs::EventKind::TaskStart);
    const std::size_t end_before = count(gsx::obs::EventKind::TaskEnd);
    const std::size_t edge_before = count(gsx::obs::EventKind::TaskDepEdge);
    TaskGraph g;
    std::atomic<int> ran{0};
    const auto d = DatumId::from_index(0);
    g.submit("a()", {{d, Access::Write}}, [&] { ++ran; });
    g.submit("b()", {{d, Access::Read}}, [&] { ++ran; });
    g.run(300);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_LE(count(gsx::obs::EventKind::TaskStart), start_before);
    EXPECT_LE(count(gsx::obs::EventKind::TaskEnd), end_before);
    EXPECT_LE(count(gsx::obs::EventKind::TaskDepEdge), edge_before);
  }
}
#endif

}  // namespace
}  // namespace gsx::rt
