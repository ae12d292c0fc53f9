// End-to-end pipeline tracing: phase spans plus per-task kernel events.
//
// While enabled, the runtime's TaskGraph workers record every finished
// kernel task here; the store keeps those task spans, the surrounding
// pipeline phases (assembly -> precision policy -> compression -> factorize
// -> solve -> krige) and any user spans on a single process-wide clock, so
// one Chrome trace covers the full MLE / prediction pipeline. Kernels
// attach metadata (precision, rank, flops) to the task that is currently
// executing them via a thread-local annotation slot drained by the
// TaskGraph worker loop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/precision.hpp"

namespace gsx::obs {

/// Seconds since the process-wide observability epoch (steady clock).
[[nodiscard]] double now_seconds() noexcept;

/// One completed span on the shared clock.
struct Span {
  std::string name;
  std::string category;  ///< "phase" for pipeline stages, "task" for kernels
  std::uint32_t tid = 0;  ///< worker id for tasks; kPipelineTid for phases
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  std::string args;  ///< pre-rendered JSON fields ("\"k\": v, ...") or empty
};

/// Chrome-trace row that pipeline phases render on (kept clear of worker
/// ids, which start at 0).
inline constexpr std::uint32_t kPipelineTid = 999;

/// Append a completed span (thread-safe; no-op when disabled).
void record_span(Span s);

/// All spans recorded since the last reset_trace(), in recording order.
[[nodiscard]] std::vector<Span> trace_spans();

void reset_trace();

/// RAII pipeline-phase span ("phase" category, pipeline row).
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name);
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase();

 private:
  const char* name_;
  double start_ = -1.0;  ///< < 0: disabled at entry, destructor no-ops
};

/// Trace context propagated from the serving layer into solver entry points
/// (an explicit argument, never ambient state), so spans and flight-recorder
/// events deep in cholesky/ carry the originating request id end-to-end.
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

/// Render an annotation as Chrome-trace "args" fields.
[[nodiscard]] std::string annotation_args(const TaskAnnotation& a);

}  // namespace gsx::obs
