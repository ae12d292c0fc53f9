// Flight recorder: per-thread event rings, process-wide merge/dump paths and
// the Prometheus exposition that the serving layer scrapes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export_prom.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace {

using gsx::obs::Event;
using gsx::obs::EventKind;
using gsx::obs::EventRing;
using gsx::obs::FlightRecorder;

Event make_event(std::uint64_t i) {
  Event e;
  e.t = static_cast<double>(i) * 0.5;
  e.kind = EventKind::TaskBegin;
  e.request = i;
  e.a = i;
  e.b = i;
  e.v = static_cast<double>(i);
  return e;
}

TEST(EventRing, RecordsAndSnapshots) {
  EventRing ring;
  for (std::uint64_t i = 1; i <= 100; ++i) ring.record(make_event(i));
  EXPECT_EQ(ring.recorded(), 100u);

  std::vector<Event> out;
  ring.snapshot_into(out);
  ASSERT_EQ(out.size(), 100u);
  std::set<std::uint64_t> seen;
  for (const Event& e : out) {
    EXPECT_EQ(e.kind, EventKind::TaskBegin);
    EXPECT_EQ(e.a, e.request);
    EXPECT_DOUBLE_EQ(e.v, static_cast<double>(e.a));
    seen.insert(e.a);
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 1u);
  EXPECT_EQ(*seen.rbegin(), 100u);
}

TEST(EventRing, WrapsKeepingTheNewestEvents) {
  EventRing ring;
  const std::uint64_t total = gsx::obs::kRingCapacity + 250;
  for (std::uint64_t i = 0; i < total; ++i) ring.record(make_event(i));
  EXPECT_EQ(ring.recorded(), total);

  std::vector<Event> out;
  ring.snapshot_into(out);
  ASSERT_EQ(out.size(), gsx::obs::kRingCapacity);
  std::uint64_t min_a = total;
  for (const Event& e : out) min_a = std::min(min_a, e.a);
  // The 250 oldest events were overwritten in place.
  EXPECT_EQ(min_a, 250u);
}

// The seqlock contract: a snapshot racing the writer never yields a torn
// event (fields from two different records). Events are written with
// a == b == request and v == a, so any mix would be visible.
TEST(EventRing, SnapshotNeverTearsUnderConcurrentWrites) {
  EventRing ring;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) ring.record(make_event(i++));
  });
  // Snapshots of an empty ring are vacuously tear-free; wait until the
  // writer thread is actually producing before racing against it.
  while (ring.recorded() < 64) std::this_thread::yield();

  std::size_t checked = 0;
  for (int pass = 0; pass < 200; ++pass) {
    std::vector<Event> out;
    ring.snapshot_into(out);
    for (const Event& e : out) {
      ASSERT_EQ(e.a, e.b);
      ASSERT_EQ(e.a, e.request);
      ASSERT_DOUBLE_EQ(e.v, static_cast<double>(e.a));
      ++checked;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(checked, 0u);
}

TEST(FlightRecorder, MergesEveryThreadTimeOrdered) {
  const std::uint64_t marker = 77'000'000;  // distinguish this test's events
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([w, marker] {
      for (int i = 0; i < kPerThread; ++i)
        gsx::obs::flight_record(EventKind::CacheHit, marker + static_cast<std::uint64_t>(w),
                                static_cast<std::uint64_t>(i), 0, 0.0);
    });
  }
  for (std::thread& t : pool) t.join();

  const std::vector<Event> all = FlightRecorder::instance().snapshot();
  std::size_t mine = 0;
  double last_t = -1.0;
  for (const Event& e : all) {
    EXPECT_GE(e.t, last_t);  // merged stream is time-ordered
    last_t = e.t;
    if (e.request >= marker && e.request < marker + kThreads) ++mine;
  }
  EXPECT_EQ(mine, static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(FlightRecorder, EventJsonlHasTheDocumentedShape) {
  Event e;
  e.t = 1.25;
  e.kind = EventKind::RequestAdmit;
  e.thread = 3;
  e.request = 42;
  e.a = 7;
  e.b = 9;
  e.v = 0.5;
  const std::string line = gsx::obs::event_jsonl(e);
  EXPECT_NE(line.find("\"kind\":\"request_admit\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"request\":42"), std::string::npos) << line;
  EXPECT_NE(line.find("\"a\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"b\":9"), std::string::npos) << line;
  EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST(FlightRecorder, DumpWritesJsonl) {
  gsx::obs::flight_record(EventKind::SolveBegin, 4242, 10, 20, 0.0);
  const std::string path = ::testing::TempDir() + "gsx_flight_dump_test.jsonl";
  ASSERT_TRUE(FlightRecorder::instance().dump(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool found = false;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_NE(line.find("\"kind\":"), std::string::npos);
    if (line.find("\"request\":4242") != std::string::npos &&
        line.find("solve_begin") != std::string::npos)
      found = true;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(FlightRecorder, SignalSafeDumpWritesParseableLines) {
  gsx::obs::flight_record(EventKind::NumericalSentinel, 5151, 3, 0, 0.0);
  const std::string path = ::testing::TempDir() + "gsx_flight_fd_test.jsonl";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  FlightRecorder::instance().dump_fd_signal_safe(fileno(f));
  std::fclose(f);

  std::ifstream in(path);
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"request\":5151") != std::string::npos &&
        line.find("numerical_sentinel") != std::string::npos)
      found = true;
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

class PromExport : public ::testing::Test {
 protected:
  void SetUp() override {
    gsx::obs::Registry::instance().reset();
    gsx::obs::set_enabled(true);
  }
  void TearDown() override {
    gsx::obs::set_enabled(false);
    gsx::obs::Registry::instance().reset();
  }
};

/// Parse exposition text into {series line -> value}; series includes labels.
std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    const std::string series = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    out[series] = std::stod(value);
  }
  return out;
}

TEST_F(PromExport, NameSanitization) {
  EXPECT_EQ(gsx::obs::prometheus_name("serve.predict.seconds"),
            "gsx_serve_predict_seconds");
  EXPECT_EQ(gsx::obs::prometheus_name("taskgraph.queue_depth"),
            "gsx_taskgraph_queue_depth");
  EXPECT_EQ(gsx::obs::prometheus_name("weird-name/x"), "gsx_weird_name_x");
}

TEST_F(PromExport, CounterAndGaugeRoundTrip) {
  gsx::obs::Registry::instance().counter("promtest.requests").add(5);
  gsx::obs::Registry::instance().gauge("promtest.depth").set(3.5);

  const std::string text = gsx::obs::render_prometheus();
  EXPECT_NE(text.find("# TYPE gsx_promtest_requests counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsx_promtest_depth gauge"), std::string::npos);

  const auto series = parse_prometheus(text);
  EXPECT_DOUBLE_EQ(series.at("gsx_promtest_requests"), 5.0);
  EXPECT_DOUBLE_EQ(series.at("gsx_promtest_depth"), 3.5);
}

TEST_F(PromExport, HistogramCumulativeBucketsRoundTrip) {
  auto& h = gsx::obs::Registry::instance().histogram("promtest.latency",
                                                     {0.1, 1.0, 10.0});
  h.observe(0.05);   // le 0.1
  h.observe(0.5);    // le 1.0
  h.observe(0.7);    // le 1.0
  h.observe(5.0);    // le 10.0
  h.observe(100.0);  // overflow

  const std::string text = gsx::obs::render_prometheus();
  EXPECT_NE(text.find("# TYPE gsx_promtest_latency histogram"), std::string::npos);
  const auto series = parse_prometheus(text);

  EXPECT_DOUBLE_EQ(series.at("gsx_promtest_latency_bucket{le=\"0.1\"}"), 1.0);
  EXPECT_DOUBLE_EQ(series.at("gsx_promtest_latency_bucket{le=\"1\"}"), 3.0);
  EXPECT_DOUBLE_EQ(series.at("gsx_promtest_latency_bucket{le=\"10\"}"), 4.0);
  EXPECT_DOUBLE_EQ(series.at("gsx_promtest_latency_bucket{le=\"+Inf\"}"), 5.0);
  EXPECT_DOUBLE_EQ(series.at("gsx_promtest_latency_count"), 5.0);
  EXPECT_NEAR(series.at("gsx_promtest_latency_sum"), 106.25, 1e-9);

  // Cumulative buckets must be non-decreasing in exposition order (the map
  // sorts "+Inf" before "0.1", so walk the rendered text) and end at _count.
  std::istringstream in(text);
  std::string line;
  double prev = 0.0;
  double last = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind("gsx_promtest_latency_bucket", 0) != 0) continue;
    const double value = std::stod(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(value, prev) << line;
    prev = value;
    last = value;
  }
  EXPECT_DOUBLE_EQ(last, series.at("gsx_promtest_latency_count"));
}

TEST_F(PromExport, RendersEveryRegistryInstrument) {
  gsx::obs::Registry::instance().counter("promtest.a").add();
  gsx::obs::Registry::instance().gauge("promtest.b").set(1.0);
  gsx::obs::Registry::instance().histogram("promtest.c").observe(1.0);
  const std::string text = gsx::obs::render_prometheus();
  std::size_t families = 0;
  for (const gsx::obs::MetricSample& s : gsx::obs::Registry::instance().samples()) {
    EXPECT_NE(text.find(gsx::obs::prometheus_name(s.name)), std::string::npos)
        << s.name;
    ++families;
  }
  EXPECT_GE(families, 3u);
}

}  // namespace
