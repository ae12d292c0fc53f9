// Execution analytics: turn flight-recorder history (TaskStart / TaskEnd /
// TaskDepEdge plus the tile-exchange events) into the three diagnostics that
// govern task-runtime scalability — the critical path of the executed DAG,
// per-worker / per-rank utilization, and comm-vs-compute overlap.
//
// The input is a merged fleet timeline (obs/flight_merge.hpp): either one
// process's dump or a flight_collect directory of a distributed run, with
// heartbeat-derived clock offsets already applied. Everything here is pure
// post-processing — no locks, no registry writes except the explicit
// export_analytics_metrics() hook — so the same code backs the offline
// gsx_obs subcommands and the in-process profile.json summary.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_merge.hpp"
#include "obs/ring.hpp"

namespace gsx::obs {

/// Pack the leading identifier of a task name (chars before '(' — the op
/// kind: "potrf", "gemm", "recv", ...) into a u64, little-endian, at most 8
/// bytes. Self-describing in JSONL dumps: unpack_op_name inverts it.
[[nodiscard]] std::uint64_t pack_op_name(std::string_view name) noexcept;
[[nodiscard]] std::string unpack_op_name(std::uint64_t packed);

// Field layouts of the TaskStart/TaskEnd/TaskDepEdge `a` word (ring.hpp).
[[nodiscard]] constexpr std::uint64_t task_ident(std::uint64_t gen,
                                                 std::uint64_t worker,
                                                 std::uint64_t task) noexcept {
  return (gen & 0xFFFFu) << 48 | (worker & 0xFFu) << 40 | (task & 0xFFFFFFFFFFu);
}
[[nodiscard]] constexpr std::uint64_t dep_ident(std::uint64_t gen,
                                                std::uint64_t succ,
                                                std::uint64_t pred) noexcept {
  return (gen & 0xFFFFu) << 48 | (succ & 0xFFFFFFu) << 24 | (pred & 0xFFFFFFu);
}
/// Worker field value for externally-completed tasks (transport notify()).
inline constexpr std::uint64_t kExternalWorker = 0xFF;

/// One executed task reconstructed from its TaskStart/TaskEnd pair.
struct TaskExec {
  std::uint64_t task = 0;    ///< submission index within its graph
  std::uint64_t worker = 0;  ///< executing worker (kExternalWorker = external)
  std::string op;            ///< decoded op-kind prefix ("gemm", ...)
  double start = 0.0;        ///< wall seconds (offset-corrected)
  double end = 0.0;
  bool started = false;                ///< a TaskStart was decoded
  std::size_t dep_count = 0;           ///< predecessor count TaskStart recorded
  std::vector<std::uint64_t> preds;    ///< predecessor task ids (same graph)
  [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// One (process, graph-generation) DAG execution.
struct GraphExec {
  std::string process;
  std::uint64_t generation = 0;
  std::map<std::uint64_t, TaskExec> tasks;  ///< task id -> execution record
  std::size_t edges = 0;                    ///< TaskDepEdge events decoded
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
  std::vector<CommEvent> comm;
  double t_min = 0.0;  ///< earliest task start across all graphs
  double t_max = 0.0;  ///< latest task end
};

/// Decode a merged timeline (clock offsets already applied by
/// merge_flight_dumps). Events other than the task/tile vocabulary are
/// ignored. TaskEnd without a matching TaskStart (external tasks) yields a
/// zero-duration task at the end timestamp.
[[nodiscard]] ExecutionHistory build_history(const std::vector<MergedEvent>& timeline);

/// Convenience: decode this process's own flight recorder snapshot (raw
/// Events, monotonic clock — fine for a single process).
[[nodiscard]] ExecutionHistory build_history(const std::vector<Event>& events,
                                             const std::string& process = "gsx");

/// Longest duration-weighted dependency chain through one executed DAG.
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
  /// 0 and every non-external task has a TaskStart whose dep_count equals
  /// its decoded predecessors. Ring wrap drops tasks or edges; the path of an
  /// incomplete graph may then be shorter than the one that really ran.
  bool complete = false;
};

/// Critical path of one graph. With edges missing (ring wrap) the chain is
/// computed over what was decoded — down to the heaviest single task when no
/// edge survived — and `complete` is false.
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
  double queue_wait_seconds = 0.0;  ///< sum of (start - all-preds-done)
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
/// task plus instant events for tile sends/receives. Throws InvalidArgument
/// if the file cannot be written.
void write_gantt_trace(const ExecutionHistory& h, const std::string& path);

}  // namespace gsx::obs
