#include "obs/trace.hpp"

#include <array>
#include <chrono>
#include <string>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace gsx::obs {

namespace {

using clock = std::chrono::steady_clock;

clock::time_point epoch() {
  static const clock::time_point e = clock::now();
  return e;
}

thread_local std::optional<TaskAnnotation> t_annotation;

}  // namespace

double now_seconds() noexcept {
  return std::chrono::duration<double>(clock::now() - epoch()).count();
}

std::string_view phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::Assemble: return "assemble";
    case Phase::Compress: return "compress";
    case Phase::PrecisionPolicy: return "precision_policy";
    case Phase::Factorize: return "factorize";
    case Phase::Solve: return "solve";
    case Phase::Krige: return "krige";
  }
  return "unknown";
}

Histogram& phase_histogram(Phase p) {
  // The registry lookup takes a mutex: resolve every phase once (references
  // stay valid across Registry::reset()).
  static const std::array<Histogram*, kNumPhases> hists = [] {
    std::array<Histogram*, kNumPhases> h{};
    for (std::size_t i = 0; i < kNumPhases; ++i)
      h[i] = &Registry::instance().histogram(
          std::string(phase_name(static_cast<Phase>(i))) + ".seconds",
          Histogram::duration_bounds());
    return h;
  }();
  return *hists.at(static_cast<std::size_t>(p));
}

ScopedPhase::ScopedPhase(Phase phase) noexcept : phase_(phase), start_(now_seconds()) {}

ScopedPhase::~ScopedPhase() {
  const double seconds = now_seconds() - start_;
  GSX_FLIGHT(EventKind::Phase, 0, static_cast<std::uint64_t>(phase_), 0, seconds);
  if (enabled()) phase_histogram(phase_).observe(seconds);
}

void annotate_task(Precision p, std::int64_t rank, std::uint64_t flops) noexcept {
  if (!enabled()) return;
  t_annotation = TaskAnnotation{p, rank, flops};
}

std::optional<TaskAnnotation> take_task_annotation() noexcept {
  std::optional<TaskAnnotation> out;
  t_annotation.swap(out);
  return out;
}

}  // namespace gsx::obs
