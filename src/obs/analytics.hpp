// Execution analytics: turn flight-recorder history (TaskBegin /
// TaskFinish / Phase plus the tile-exchange events) into the three
// diagnostics that govern task-runtime scalability — the as-executed
// critical path of each DAG, per-worker / per-rank utilization, and
// comm-vs-compute overlap — and into the Chrome trace.
//
// The input is a merged fleet timeline (obs/flight_merge.hpp): either one
// process's dump or a flight_collect directory of a distributed run, with
// heartbeat-derived clock offsets already applied. Everything here is pure
// post-processing — no locks, no registry writes except the explicit
// export_analytics_metrics() hook — so the same code backs the offline
// gsx_obs subcommands and the in-process profile.json summary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_merge.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"

namespace gsx::obs {

/// Pack the leading identifier of a task name (chars before '(' — the op
/// kind: "potrf", "gemm", "recv", ...) into a u64, little-endian, at most 8
/// bytes. Self-describing in JSONL dumps: unpack_op_name inverts it.
[[nodiscard]] std::uint64_t pack_op_name(std::string_view name) noexcept;
[[nodiscard]] std::string unpack_op_name(std::uint64_t packed);

/// Field layout of the TaskBegin/TaskFinish `a` word (ring.hpp).
[[nodiscard]] constexpr std::uint64_t task_ident(std::uint64_t gen,
                                                 std::uint64_t worker,
                                                 std::uint64_t task) noexcept {
  return (gen & 0xFFFFu) << 48 | (worker & 0xFFu) << 40 | (task & 0xFFFFFFFFFFu);
}
/// Worker field value for externally-completed tasks (transport notify()).
inline constexpr std::uint64_t kExternalWorker = 0xFF;

/// TaskFinish's `b` word: precision code + 1 in bits 0-3, rank + 1 in bits
/// 4-23 and flops in bits 24-63, each field saturating. 0 means the task
/// made no annotation.
[[nodiscard]] constexpr std::uint64_t pack_annotation(const TaskAnnotation& a) noexcept {
  constexpr std::uint64_t kRankMax = 0xFFFFEu;
  constexpr std::uint64_t kFlopsMax = 0xFFFFFFFFFFu;
  const std::uint64_t rank1 =
      a.rank < 0 ? 0 : std::min(static_cast<std::uint64_t>(a.rank), kRankMax) + 1;
  return (static_cast<std::uint64_t>(a.precision) + 1) | rank1 << 4 |
         std::min(a.flops, kFlopsMax) << 24;
}
[[nodiscard]] constexpr std::optional<TaskAnnotation> unpack_annotation(
    std::uint64_t packed) noexcept {
  const std::uint64_t p1 = packed & 0xFu;
  if (p1 == 0 || p1 > kNumPrecisions) return std::nullopt;
  return TaskAnnotation{static_cast<Precision>(p1 - 1),
                        static_cast<std::int64_t>((packed >> 4) & 0xFFFFFu) - 1,
                        packed >> 24};
}

/// One executed task reconstructed from its TaskBegin/TaskFinish pair.
struct TaskExec {
  std::uint64_t task = 0;    ///< submission index within its graph
  std::uint64_t worker = 0;  ///< executing worker (kExternalWorker = external)
  std::string op;            ///< decoded op kind ("gemm", ...)
  double start = 0.0;        ///< wall seconds (offset-corrected)
  double end = 0.0;
  bool began = false;     ///< its TaskBegin was decoded
  bool finished = false;  ///< its TaskFinish was decoded
  /// The predecessor whose completion made this task ready; empty for a
  /// seed task or one released by notify().
  std::optional<std::uint64_t> releaser;
  std::optional<TaskAnnotation> annotation;  ///< what its kernel reported
  [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// One (process, graph-generation) DAG execution.
struct GraphExec {
  std::string process;
  std::uint64_t generation = 0;
  std::map<std::uint64_t, TaskExec> tasks;  ///< task id -> execution record
};

/// One pipeline phase (a Phase event) on a process.
struct PhaseExec {
  std::string process;
  std::string name;  ///< phase_name()
  double start = 0.0;  ///< wall seconds (offset-corrected)
  double end = 0.0;
};

/// One communication point event (TileSend/TileRecv) on a process.
struct CommEvent {
  std::string process;
  double t = 0.0;            ///< wall seconds (offset-corrected)
  std::uint64_t bytes = 0;
  bool recv = false;
};

/// Everything analytics needs, decoded once from a merged timeline.
struct ExecutionHistory {
  std::vector<GraphExec> graphs;
  std::vector<PhaseExec> phases;
  std::vector<CommEvent> comm;
  double t_min = 0.0;  ///< earliest task start across all graphs
  double t_max = 0.0;  ///< latest task end
};

/// Decode a merged timeline (clock offsets already applied by
/// merge_flight_dumps). The only decoder of the task events: events other
/// than the task/phase/tile vocabulary are ignored, which includes the
/// retired task_start/task_end/task_dep of older dumps. A task missing one
/// of its two events keeps the other's timestamp (duration from TaskFinish's
/// v when only that survived).
[[nodiscard]] ExecutionHistory build_history(const std::vector<MergedEvent>& timeline);

/// Convenience: decode this process's own flight recorder snapshot (raw
/// Events, monotonic clock — fine for a single process).
[[nodiscard]] ExecutionHistory build_history(const std::vector<Event>& events,
                                             const std::string& process = "gsx");

/// The as-executed critical path of one DAG: the chain of releasing
/// predecessors, walked back from the last task to finish.
struct CriticalPathReport {
  std::string process;
  std::uint64_t generation = 0;
  double length_seconds = 0.0;        ///< sum of task durations on the path
  double span_seconds = 0.0;          ///< wall span first start -> last end
  std::size_t length_tasks = 0;
  std::vector<std::uint64_t> path;    ///< task ids, dependency order
  std::map<std::string, double> op_seconds;  ///< per-op-kind attribution
  /// Fraction of total recorded task seconds that sit on the path — how
  /// serialized the execution was (1.0 = a pure chain).
  double dominance = 0.0;
  /// True when the graph's history is whole: task ids run contiguously from
  /// 0, every task has both events, and every recorded releaser is present.
  /// Ring wrap drops events; the path of an incomplete graph may end early
  /// or start from a task that was not the last to finish.
  bool complete = false;
};

/// Critical path of one graph, over whatever events survived (`complete`
/// says whether that is all of them).
[[nodiscard]] CriticalPathReport critical_path(const GraphExec& g);
/// The dominant critical path across the history: the longest
/// length_seconds among complete graphs, or among all graphs when none is
/// complete. Returns a default report for an empty history.
[[nodiscard]] CriticalPathReport critical_path(const ExecutionHistory& h);

/// Busy/idle accounting for one (process, worker) lane.
struct WorkerUtilization {
  std::string process;
  std::uint64_t worker = 0;
  std::size_t tasks = 0;
  double busy_seconds = 0.0;        ///< union of task intervals
  double queue_wait_seconds = 0.0;  ///< sum of (start - releaser's end)
  double utilization = 0.0;         ///< busy / window
};

struct UtilizationReport {
  double window_seconds = 0.0;  ///< t_max - t_min over the whole history
  std::vector<WorkerUtilization> workers;  ///< external lanes excluded
  /// Jain's fairness index over per-worker busy seconds:
  /// (sum x)^2 / (n * sum x^2); 1.0 = perfectly balanced, 1/n = one hog.
  double jain_fairness = 0.0;
  double parallel_efficiency = 0.0;  ///< total busy / (window * lanes)
  /// Per-process rollup (rank imbalance for distributed runs).
  std::map<std::string, double> process_busy_seconds;
};

[[nodiscard]] UtilizationReport utilization(const ExecutionHistory& h);

/// Comm-vs-compute overlap: the fraction of tile wire events (and bytes)
/// whose timestamp lands inside a compute-busy interval of their process.
/// TileSend/TileRecv are point events, so this measures whether the
/// transport fires while workers are busy (overlapped) or while they sit
/// idle waiting on the wire (exposed communication).
struct OverlapReport {
  std::size_t comm_events = 0;
  std::size_t overlapped_events = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_overlapped = 0;
  double overlap_fraction = 0.0;  ///< overlapped_events / comm_events
};

[[nodiscard]] OverlapReport comm_overlap(const ExecutionHistory& h);

/// The full bundle the CLI surfaces.
struct AnalyticsReport {
  CriticalPathReport critical_path;
  UtilizationReport utilization;
  OverlapReport overlap;
};

[[nodiscard]] AnalyticsReport analyze(const ExecutionHistory& h);

/// Publish the headline numbers as obs.analytics.* gauges so a scrape (or
/// profile.json's metrics array) carries them alongside the raw counters.
void export_analytics_metrics(const AnalyticsReport& r);

/// Render the report as a JSON object (no trailing newline) — the
/// "analytics" block embedded in profile.json and bench JSON.
[[nodiscard]] std::string analytics_json(const AnalyticsReport& r,
                                         const std::string& indent = "  ");

/// Chrome-trace (about://tracing, Perfetto) export of the merged per-rank
/// timeline: one pid per process, one tid per worker lane, an "X" slice per
/// task (named by op kind, with task id, generation and any kernel
/// annotation as args), the phases on a "pipeline" row, and instant events
/// for tile sends/receives. gsx_cli --profile writes this over its own
/// flight history as PREFIX.trace.json. Throws InvalidArgument if the file
/// cannot be written.
void write_gantt_trace(const ExecutionHistory& h, const std::string& path);

}  // namespace gsx::obs
