// Flight-recorder event rings: lock-free, per-thread, fixed-size buffers of
// compact structured events.
//
// Every thread that records gets its own ring (registered with the process-
// wide FlightRecorder on first use), so the record path is a single-writer
// seqlock store — no locks, no allocation, wait-free for the writer. The
// ring keeps the last kRingCapacity events per thread; older events are
// overwritten in place. Readers (snapshot, crash dump) copy slots under the
// per-slot sequence and discard entries that were being rewritten mid-copy,
// so a snapshot never blocks or corrupts the hot path.
//
// The rings are the one record of task and phase execution: each task-graph
// task writes a TaskBegin/TaskFinish pair and each pipeline phase one Phase
// event; the execution analytics and the Chrome trace read those. A trace
// therefore covers the last kRingCapacity events of each thread, not the
// whole run.
//
// Record sites compile away entirely when the GSX_TELEMETRY CMake option is
// OFF (the GSX_FLIGHT macro below), bounding the always-on cost to zero for
// builds that want it. Such a build records no task or phase, so its
// Chrome trace is empty; the per-phase totals (obs/trace.hpp) still count.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace gsx::obs {

/// Compact event vocabulary. Keep the numeric values stable: they appear in
/// JSONL dumps that outlive the process that wrote them.
enum class EventKind : std::uint16_t {
  RequestAdmit = 1,      ///< a = queue depth after admit
  RequestDispatch = 2,   ///< a = batch size (requests), b = batch points
  RequestComplete = 3,   ///< a = ok (1/0), v = total seconds
  RequestReject = 4,     ///< a = 1 queue-full, 2 deadline, 3 draining
  // 10-12 are retired (the former task_ready/task_run/task_done interval
  // events, superseded by the task events below). Never reuse them: older
  // dumps still carry those values.
  TileDemotion = 20,     ///< a = tile i, b = tile j, v = observed error
  CacheHit = 30,         ///< request-scoped model lookup hit
  CacheMiss = 31,
  CacheEvict = 32,       ///< v = evicted bytes
  NumericalSentinel = 40,  ///< a = non-finite count, request-scoped
  SolveBegin = 50,       ///< a = train n, b = batch points
  SolveEnd = 51,         ///< v = solve seconds
  RouterForward = 60,    ///< a = fleet_hash(model), b = attempt (0-based),
                         ///< v = forward seconds; router-side hop of a
                         ///< request, same id as the replica-side events
  // Completed spans (distributed tracing): a = span id, b = parent span id,
  // v = duration seconds, t = span end. The span hierarchy crosses the
  // router->replica hop via the parent id carried on the wire.
  SpanRouterQueue = 61,     ///< router: parse + owner lookup before the hop
  SpanRouterForward = 62,   ///< router: one forward attempt round trip
  SpanRouterRetry = 63,     ///< router: failover retry (attempt >= 1)
  SpanReplicaQueue = 64,    ///< replica: admission -> batch start
  SpanReplicaAssemble = 65, ///< replica: Sigma_mn assembly inside the pass
  SpanReplicaSolve = 66,    ///< replica: triangular solve + mean/variance
  // Heartbeat request/response pairs: the clock-alignment datum for
  // cross-process dump merges (gsx_obs). a = heartbeat seq number.
  HeartbeatSend = 70,  ///< replica: request written to the router
  HeartbeatAck = 71,   ///< replica: response read back, v = round trip seconds
  HeartbeatRecv = 72,  ///< router: heartbeat handled
  // Distributed tile exchange and out-of-core spill (src/dist). All four
  // carry a = (tile_i << 32) | tile_j, b = payload bytes on the wire/disk,
  // v = the tile's storage Precision code — so a merged fleet timeline shows
  // which tile moved, how many bytes it cost and at which precision.
  TileSend = 80,  ///< worker: tile frame written to a peer
  TileRecv = 81,  ///< worker: tile frame received and CRC-verified
  SpillOut = 82,  ///< out-of-core pool: cold tile written to disk
  SpillIn = 83,   ///< out-of-core pool: spilled tile read back (CRC-checked)
  // 90-92 are retired (task_start/task_end plus one task_dep per DAG edge,
  // superseded by TaskBegin/TaskFinish below). Never reuse them either.
  //
  // Task execution history (src/obs/analytics.hpp decodes these): each task
  // records exactly two events, on its executing worker's ring. Both carry
  // the full task identity in one word:
  //   a = (graph_gen << 48) | (worker << 40) | task_id
  // where graph_gen is a process-wide 16-bit run() generation (so concurrent
  // graphs in one process stay separable), worker is 8-bit (0xFF = an
  // externally-completed task, which records both at its completion), and
  // task_id is the 40-bit submission index.
  TaskBegin = 93,   ///< b = op kind, up to 8 little-endian ASCII bytes;
                    ///< v = releasing predecessor's id + 1 (0 = a seed, or
                    ///< released by notify())
  TaskFinish = 94,  ///< b = kernel annotation (precision, rank, flops; 0 =
                    ///< none), v = body duration seconds
  Phase = 95,       ///< a = obs::Phase, v = phase seconds (t = phase end)
};

[[nodiscard]] std::string_view event_kind_name(EventKind k) noexcept;

/// One flight-recorder event. `request` is 0 outside any request scope;
/// `a`/`b`/`v` are kind-specific (see EventKind). `trace` is the distributed
/// trace id stamped from the thread's ambient trace scope (0 = untraced).
struct Event {
  double t = 0.0;            ///< obs::now_seconds() at record time
  std::uint64_t request = 0; ///< request id (serve::mint_request_id), 0 = none
  std::uint64_t trace = 0;   ///< distributed trace id, 0 = none
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double v = 0.0;
  EventKind kind = EventKind::RequestAdmit;
  std::uint16_t thread = 0;  ///< recorder-assigned ring index
};

/// Events per thread ring. Power of two so the write index wraps with a mask.
inline constexpr std::size_t kRingCapacity = 4096;

/// Single-writer ring of Events with per-slot seqlocks. The owning thread
/// calls record(); any thread may call snapshot_into() concurrently.
class EventRing {
 public:
  EventRing() = default;
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Owning thread only. Wait-free: two release stores around five relaxed
  /// payload stores.
  void record(const Event& e) noexcept;

  /// Copy every consistent, non-empty slot into `out` (appends). Entries
  /// caught mid-write (odd or changed sequence) are skipped, not blocked on.
  void snapshot_into(std::vector<Event>& out) const;

  /// Read one slot (0 <= i < kRingCapacity) if it holds a stable event.
  /// Async-signal-safe: atomic loads only, no allocation — the fatal-signal
  /// dump walks rings with this.
  bool read_slot(std::size_t i, Event& out) const noexcept;

  /// Total events ever recorded (monotonic; may exceed kRingCapacity).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Owner-thread liveness: a ring whose thread exited may be adopted by a
  /// new thread (FlightRecorder reuses the slot).
  void set_in_use(bool on) noexcept { in_use_.store(on, std::memory_order_release); }
  [[nodiscard]] bool in_use() const noexcept {
    return in_use_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    // Seqlock: even = stable, odd = being written. Payload fields are
    // relaxed atomics so concurrent snapshot reads are race-free (and
    // tsan-clean) without making the writer take a lock.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<double> t{0.0};
    std::atomic<std::uint64_t> request{0};
    std::atomic<std::uint64_t> trace{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<double> v{0.0};
    std::atomic<std::uint32_t> kind_thread{0};  ///< kind << 16 | thread
  };

  std::array<Slot, kRingCapacity> slots_;
  std::atomic<std::uint64_t> recorded_{0};  ///< next write position
  std::atomic<bool> in_use_{false};
};

}  // namespace gsx::obs

// Compile-time gate for record sites: with GSX_TELEMETRY=OFF the call sits
// in an unevaluated operand, so no code runs, yet every argument is still
// named (a value that exists only to be recorded is not "unused").
#ifndef GSX_TELEMETRY_DISABLED
#define GSX_FLIGHT(kind, request, a, b, v) \
  ::gsx::obs::flight_record((kind), (request), (a), (b), (v))
#else
#define GSX_FLIGHT(kind, request, a, b, v)                                    \
  static_cast<void>(                                                          \
      sizeof(decltype(::gsx::obs::flight_record((kind), (request), (a), (b), (v)))*))
#endif
