// Process-wide flight recorder: merges every thread's event ring into a
// time-ordered stream and ships it as JSONL — on demand, on a serving
// failure (NumericalError), or from a fatal-signal handler.
//
// Unlike the metrics/tracing layers (opt-in via obs::set_enabled), the
// flight recorder is ALWAYS ON when compiled in: its job is to explain the
// failure nobody anticipated, so it cannot depend on someone having turned
// it on first. The record path costs a handful of relaxed atomic stores
// into a thread-local ring (see ring.hpp); builds that cannot afford even
// that compile it out with -DGSX_TELEMETRY=OFF.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.hpp"

namespace gsx::obs {

/// Record one event into the calling thread's ring (registers the ring on
/// first use). Timestamp is taken here; the calling thread's ambient trace
/// id (FlightTraceScope) is stamped on the event. Prefer the GSX_FLIGHT
/// macro at call sites so GSX_TELEMETRY=OFF builds drop the site entirely.
void flight_record(EventKind kind, std::uint64_t request, std::uint64_t a,
                   std::uint64_t b, double v) noexcept;

// ---------------------------------------------------------------------------
// Distributed tracing primitives.
//
// The trace id is ambient per-thread state (unlike RequestContext, which is
// threaded explicitly): GSX_FLIGHT sites are scattered across layers whose
// signatures must not grow a trace parameter, and the id only decorates
// events — it never changes behavior. A scope installs the id for the
// duration of one request's work on the current thread.

/// Set the calling thread's ambient trace id (0 clears). Returns the
/// previous value so scopes can nest.
std::uint64_t set_current_trace(std::uint64_t trace) noexcept;

/// RAII trace scope: events recorded by this thread inside the scope carry
/// `trace`; the previous ambient id is restored on exit.
class FlightTraceScope {
 public:
  explicit FlightTraceScope(std::uint64_t trace) noexcept
      : prev_(set_current_trace(trace)) {}
  ~FlightTraceScope() { set_current_trace(prev_); }
  FlightTraceScope(const FlightTraceScope&) = delete;
  FlightTraceScope& operator=(const FlightTraceScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// Mint a span id unique across the fleet: low 48 bits are a process-local
/// counter, the top 16 bits fold in the pid so router- and replica-minted
/// ids never collide in a merged timeline.
[[nodiscard]] std::uint64_t mint_span_id() noexcept;

/// The process-wide recorder.
class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Merge all rings, time-ordered. Never blocks writers.
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Snapshot serialized as JSONL. The first line is a dump header carrying
  /// the alignment datum for cross-process merges — wall clock
  /// (CLOCK_REALTIME) and monotonic clock sampled at the same instant, plus
  /// process name and pid:
  ///   {"t":1.25,"kind":"dump_header","process":"r0","pid":4242,
  ///    "wall_anchor":1754700000.5,"mono_anchor":1.25}
  /// followed by one event object per line:
  ///   {"t":1.25,"kind":"task_begin","thread":0,"request":0,"trace":0,...}
  [[nodiscard]] std::string snapshot_jsonl() const;

  /// Process name stamped on dump headers (defaults to "gsx"). Set once at
  /// daemon startup (e.g. the replica's --name).
  void set_process_name(std::string name);
  [[nodiscard]] std::string process_name() const;

  /// Write snapshot_jsonl() to `path` (truncates). Returns false on I/O
  /// failure. This is the NumericalError dump path: the serving engine calls
  /// it with the configured dump file before failing the request.
  bool dump(const std::string& path) const;

  /// Where failure dumps go; empty disables them. Thread-safe.
  void set_dump_path(std::string path);
  [[nodiscard]] std::string dump_path() const;

  /// Dump to the configured path (no-op when unset). Returns the path
  /// written, or empty. Called on NumericalError in the serving engine.
  std::string dump_on_failure() const;

  /// Async-signal-safe dump: formats events into a stack buffer and
  /// write()s them to `fd`. No allocation, no locks, no stdio — callable
  /// from a SIGSEGV/SIGABRT handler. Events may be slightly out of order
  /// (no sort without allocation); each line carries its timestamp.
  void dump_fd_signal_safe(int fd) const noexcept;

  /// Install SIGSEGV/SIGBUS/SIGABRT/SIGFPE handlers that dump the flight
  /// recorder to `fd` (typically an opened crash file or stderr) and then
  /// re-raise with the default disposition. Idempotent.
  void install_fatal_handlers(int fd) noexcept;

  // Internal: called by flight_record on a thread's first event.
  EventRing* acquire_ring(std::uint16_t* index_out) noexcept;
  void release_ring(EventRing* ring) noexcept;

 private:
  FlightRecorder() = default;
};

/// Render one event as a single JSONL line (no trailing newline).
[[nodiscard]] std::string event_jsonl(const Event& e);

}  // namespace gsx::obs
