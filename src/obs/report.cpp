#include "obs/report.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "obs/flops.hpp"
#include "obs/health.hpp"
#include "obs/hwcounters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace gsx::obs {

namespace {

constexpr std::string_view precision_label(std::size_t p) {
  return precision_name(static_cast<Precision>(p));
}

/// {"FP64": {"potrf": {"calls": c, "flops": f}, ...}, ...} — zero cells
/// omitted so reports stay readable at quickstart sizes.
void write_flop_mix(std::ostream& os, const FlopSnapshot& s, const std::string& indent) {
  os << "{";
  bool first_p = true;
  for (std::size_t p = 0; p < kNumPrecisions; ++p) {
    std::uint64_t row_total = 0;
    for (std::size_t o = 0; o < kNumKernelOps; ++o) row_total += s.calls[p][o];
    if (row_total == 0) continue;
    if (!first_p) os << ",";
    first_p = false;
    os << "\n" << indent << "  \"" << precision_label(p) << "\": {";
    bool first_o = true;
    for (std::size_t o = 0; o < kNumKernelOps; ++o) {
      if (s.calls[p][o] == 0) continue;
      if (!first_o) os << ", ";
      first_o = false;
      os << "\"" << kernel_op_name(static_cast<KernelOp>(o)) << "\": {\"calls\": "
         << s.calls[p][o] << ", \"flops\": " << s.flops[p][o] << "}";
    }
    os << "}";
  }
  if (!first_p) os << "\n" << indent;
  os << "}";
}

/// {"FP64->FP32": {"count": c, "elements": e}, ...}
void write_conversions(std::ostream& os, const FlopSnapshot& s, const std::string& indent) {
  os << "{";
  bool first = true;
  for (std::size_t f = 0; f < kNumPrecisions; ++f) {
    for (std::size_t t = 0; t < kNumPrecisions; ++t) {
      if (s.conv_count[f][t] == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "\n" << indent << "  \"" << precision_label(f) << "->" << precision_label(t)
         << "\": {\"count\": " << s.conv_count[f][t] << ", \"elements\": "
         << s.conv_elems[f][t] << "}";
    }
  }
  if (!first) os << "\n" << indent;
  os << "}";
}

void write_tile_mix(std::ostream& os, const TileMix& m) {
  os << "{\"dense\": {";
  bool first = true;
  for (std::size_t p = 0; p < kNumPrecisions; ++p) {
    if (m.dense[p] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << precision_label(p) << "\": " << m.dense[p];
  }
  os << "}, \"lr_fp64\": " << m.lr64 << ", \"lr_fp32\": " << m.lr32
     << ", \"total\": " << m.total() << "}";
}

void write_rank_counts(std::ostream& os,
                       const std::map<std::size_t, std::size_t>& counts) {
  os << "{";
  bool first = true;
  for (const auto& [rank, n] : counts) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << rank << "\": " << n;
  }
  os << "}";
}

}  // namespace

void write_profile_json(const std::string& path) {
  std::ofstream os(path);
  GSX_REQUIRE(os.good(), "write_profile_json: cannot open " + path);
  os << std::setprecision(9);

  const FlopSnapshot totals = flop_snapshot();
  const std::vector<IterationRecord> iters = profile_iterations();

  // Execution analytics over this process's own flight history, plus the
  // hardware-counter roofline ledger — published as gauges first so the
  // metrics array below carries them too.
  const AnalyticsReport analytics =
      analyze(build_history(FlightRecorder::instance().snapshot()));
  export_analytics_metrics(analytics);
  const HwTotals hw = hw_totals();
  publish_hw_metrics();
  const RooflinePeaks peaks = roofline_peaks();
  const double ghz = hw.live ? hw.effective_ghz() : peaks.fallback_ghz;
  for (std::size_t p = 0; p < kNumPrecisions; ++p) {
    const double achieved = totals.gflops_at(static_cast<Precision>(p));
    const double peak = peaks.peak_gflops_per_ghz[p] * ghz;
    if (achieved <= 0.0 || peak <= 0.0) continue;
    Registry::instance()
        .gauge("la.roofline.pct." + std::string(precision_label(p)))
        .set(100.0 * achieved / peak);
  }

  const std::vector<MetricSample> metrics = Registry::instance().samples();

  os << "{\n";
  os << "  \"total_flops\": " << totals.total_flops() << ",\n";
  os << "  \"flops_by_precision\": {";
  {
    bool first = true;
    for (std::size_t p = 0; p < kNumPrecisions; ++p) {
      const std::uint64_t f = totals.flops_at(static_cast<Precision>(p));
      if (f == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "\"" << precision_label(p) << "\": " << f;
    }
  }
  os << "},\n";
  os << "  \"achieved_gflops_by_precision\": {";
  {
    // Achieved rates over the kernels wrapped in a KernelTimer; precisions
    // with flops but no timing coverage are omitted rather than guessed.
    bool first = true;
    for (std::size_t p = 0; p < kNumPrecisions; ++p) {
      const double g = totals.gflops_at(static_cast<Precision>(p));
      if (g <= 0.0) continue;
      if (!first) os << ", ";
      first = false;
      os << "\"" << precision_label(p) << "\": " << g;
    }
  }
  os << "},\n";
  os << "  \"total_conversions\": " << totals.total_conversions() << ",\n";
  os << "  \"total_converted_elements\": " << totals.total_converted_elems() << ",\n";
  os << "  \"flop_mix\": ";
  write_flop_mix(os, totals, "  ");
  os << ",\n  \"conversions\": ";
  write_conversions(os, totals, "  ");

  // Per-iteration records (one per likelihood evaluation / prediction).
  os << ",\n  \"iterations\": [";
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const IterationRecord& it = iters[i];
    os << (i ? "," : "") << "\n    {\"index\": " << it.index << ", \"label\": \""
       << json_escape(it.label) << "\", \"seconds\": " << it.seconds << ",\n"
       << "     \"total_flops\": " << it.work.total_flops() << ",\n"
       << "     \"flop_mix\": ";
    write_flop_mix(os, it.work, "     ");
    os << ",\n     \"conversions\": ";
    write_conversions(os, it.work, "     ");
    os << ",\n     \"tile_mix\": ";
    write_tile_mix(os, it.tiles);
    os << ",\n     \"rank_histogram\": ";
    write_rank_counts(os, it.rank_counts);
    os << "}";
  }
  os << (iters.empty() ? "]" : "\n  ]");

  // Per-phase running totals (ScopedPhase's histograms), in Phase order.
  os << ",\n  \"phase_seconds\": {";
  double phase_sum = 0.0;
  {
    bool first = true;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const Histogram& h = phase_histogram(static_cast<Phase>(p));
      if (h.count() == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "\"" << phase_name(static_cast<Phase>(p)) << "\": " << h.sum();
      phase_sum += h.sum();
    }
  }
  os << "},\n";
  // Iteration wall time no phase accounts for.
  double iteration_sum = 0.0;
  for (const IterationRecord& it : iters) iteration_sum += it.seconds;
  os << "  \"unattributed_seconds\": " << iteration_sum - phase_sum << ",\n";

  // Achieved-vs-peak roofline. "hwcounters" is "live" when perf_event
  // sampling contributed cycles, "unavailable" when perf_event_open is
  // denied here (containers), "off" when available but not armed — the
  // peak model then falls back to the injected measured clock.
  os << "  \"roofline\": {\"hwcounters\": \""
     << (hw.live ? "live" : (hw_available() ? "off" : "unavailable")) << "\"";
  os << ", \"cycles\": " << hw.cycles << ", \"instructions\": " << hw.instructions
     << ", \"llc_misses\": " << hw.llc_misses << ", \"sampled_scopes\": " << hw.scopes
     << ", \"ipc\": " << hw.ipc() << ", \"effective_ghz\": " << ghz;
  if (!peaks.isa.empty()) os << ", \"isa\": \"" << json_escape(peaks.isa) << "\"";
  os << ",\n   \"by_precision\": {";
  {
    bool first = true;
    for (std::size_t p = 0; p < kNumPrecisions; ++p) {
      const double achieved = totals.gflops_at(static_cast<Precision>(p));
      if (achieved <= 0.0) continue;
      const double peak = peaks.peak_gflops_per_ghz[p] * ghz;
      if (!first) os << ", ";
      first = false;
      os << "\"" << precision_label(p) << "\": {\"achieved_gflops\": " << achieved;
      if (peak > 0.0)
        os << ", \"peak_gflops\": " << peak
           << ", \"pct_of_peak\": " << 100.0 * achieved / peak;
      os << "}";
    }
  }
  os << "}},\n";

  // Execution-analytics summary (critical path, utilization, overlap) from
  // this process's flight history. docs/observability.md explains the terms.
  os << "  \"analytics\": ";
  os << analytics_json(analytics, "  ");
  os << ",\n";

  // Registry metrics.
  os << "  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSample& m = metrics[i];
    os << (i ? "," : "") << "\n    {\"name\": \"" << json_escape(m.name) << "\", ";
    switch (m.kind) {
      case MetricSample::Kind::Counter:
        os << "\"type\": \"counter\", \"value\": " << static_cast<std::uint64_t>(m.value);
        break;
      case MetricSample::Kind::Gauge:
        os << "\"type\": \"gauge\", \"value\": " << m.value;
        break;
      case MetricSample::Kind::Histogram:
        os << "\"type\": \"histogram\", \"count\": " << m.count << ", \"sum\": " << m.sum
           << ", \"min\": " << m.min << ", \"max\": " << m.max << ", \"p50\": " << m.p50
           << ", \"p95\": " << m.p95 << ", \"p99\": " << m.p99;
        break;
    }
    os << "}";
  }
  os << (metrics.empty() ? "]" : "\n  ]") << "\n}\n";
  GSX_REQUIRE(os.good(), "write_profile_json: write failed for " + path);
}

void write_flops_csv(const std::string& path) {
  std::ofstream os(path);
  GSX_REQUIRE(os.good(), "write_flops_csv: cannot open " + path);
  os << "iteration,label,kernel,precision,calls,flops\n";
  const std::vector<IterationRecord> iters = profile_iterations();
  auto write_rows = [&os](long index, const std::string& label, const FlopSnapshot& s) {
    for (std::size_t p = 0; p < kNumPrecisions; ++p)
      for (std::size_t o = 0; o < kNumKernelOps; ++o) {
        if (s.calls[p][o] == 0) continue;
        os << index << "," << label << "," << kernel_op_name(static_cast<KernelOp>(o))
           << "," << precision_label(p) << "," << s.calls[p][o] << "," << s.flops[p][o]
           << "\n";
      }
    for (std::size_t f = 0; f < kNumPrecisions; ++f)
      for (std::size_t t = 0; t < kNumPrecisions; ++t) {
        if (s.conv_count[f][t] == 0) continue;
        os << index << "," << label << ",convert," << precision_label(f) << "->"
           << precision_label(t) << "," << s.conv_count[f][t] << ","
           << s.conv_elems[f][t] << "\n";
      }
  };
  for (const IterationRecord& it : iters)
    write_rows(static_cast<long>(it.index), it.label, it.work);
  write_rows(-1, "total", flop_snapshot());
  GSX_REQUIRE(os.good(), "write_flops_csv: write failed for " + path);
}

void reset_all() {
  Registry::instance().reset();
  reset_flops();
  reset_profile();
  reset_health();
  reset_hw();
}

}  // namespace gsx::obs
