// Pipeline phases and per-task kernel annotations on the shared clock.
//
// A ScopedPhase (assemble -> compress -> precision policy -> factorize ->
// solve, or krige) records one Phase event in the calling thread's flight
// ring and, while obs is enabled, observes its seconds into the phase's
// registry histogram, whose running sum profile.json reports. Kernels
// attach metadata (precision, rank, flops) to the task currently executing
// them through a thread-local annotation slot; the TaskGraph worker loop
// drains it into the task's TaskFinish event. The Chrome trace is rendered from those flight events
// (obs/analytics.hpp, write_gantt_trace).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/precision.hpp"

namespace gsx::obs {

/// Seconds since the process-wide observability epoch (steady clock).
[[nodiscard]] double now_seconds() noexcept;

/// The pipeline stages a likelihood evaluation or a prediction runs.
/// Keep the numeric values stable: Phase events carry them in dumps.
enum class Phase : std::uint8_t {
  Assemble = 0,
  Compress = 1,
  PrecisionPolicy = 2,
  Factorize = 3,
  Solve = 4,
  Krige = 5,
};
inline constexpr std::size_t kNumPhases = 6;

/// "assemble", "compress", "precision_policy", "factorize", "solve",
/// "krige"; "unknown" for a value outside the enum.
[[nodiscard]] std::string_view phase_name(Phase p) noexcept;

class Histogram;

/// The registry histogram "<phase_name>.seconds" (duration buckets) that
/// every ScopedPhase of `p` observes while obs is enabled; Registry::reset
/// (obs::reset_all) zeroes it.
[[nodiscard]] Histogram& phase_histogram(Phase p);

/// RAII pipeline phase: one Phase flight event at scope exit, plus one
/// phase_histogram observation while obs is enabled.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) noexcept;
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase();

 private:
  Phase phase_;
  double start_;
};

/// Trace context propagated from the serving layer into solver entry points
/// (an explicit argument, never ambient state), so flight-recorder events
/// deep in cholesky/ carry the originating request id end-to-end.
struct RequestContext {
  std::uint64_t request_id = 0;  ///< serve::mint_request_id(); 0 = no request
};

// ---------------------------------------------------------------------------
// Per-task kernel annotations.

/// Metadata a kernel attaches to the task currently executing it.
struct TaskAnnotation {
  Precision precision = Precision::FP64;
  std::int64_t rank = -1;  ///< low-rank output rank; -1 = dense / n.a.
  std::uint64_t flops = 0;
};

/// Set the calling thread's annotation slot (overwrites; no-op if disabled).
void annotate_task(Precision p, std::int64_t rank, std::uint64_t flops) noexcept;

/// Drain the calling thread's annotation slot (empty after the call).
[[nodiscard]] std::optional<TaskAnnotation> take_task_annotation() noexcept;

}  // namespace gsx::obs
