// Dataflow task graph: the dynamic-runtime substrate standing in for PaRSEC.
//
// Tasks are submitted with declared data accesses (sequential task flow, as
// in StarPU/PaRSEC's DTD interface); the graph derives
// read-after-write, write-after-read and write-after-write dependencies and
// executes the DAG asynchronously on a worker pool. The tile Cholesky
// variants submit one task per kernel (POTRF/TRSM/SYRK/GEMM) plus on-demand
// precision-conversion tasks, exactly the structure the paper builds inside
// PaRSEC. Priorities let the panel chain (the critical path of Cholesky)
// overtake trailing updates.
//
// Like PaRSEC's profiling, a run records each task as a begin/end pair in
// the executing thread's flight ring (obs/ring.hpp) and nothing else: the
// begin names the predecessor whose completion released the task, the end
// carries the duration and the kernel's annotation. obs/analytics.hpp
// derives the as-executed critical path, utilization and the Chrome trace
// from those events after the run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gsx::rt {

/// Access mode of one task on one datum.
enum class Access : unsigned char { Read, Write, ReadWrite };

/// Opaque datum identity. Any stable pointer works (e.g. a tile's address);
/// purely logical data may use small integers cast through `from_index`.
struct DatumId {
  std::uintptr_t key = 0;

  /// Tag bit separating logical-index keys from pointer-derived keys. User
  /// pointers on every supported 64-bit ABI (x86-64 canonical addresses,
  /// AArch64 with or without TBI ignored in userspace mappings) have the top
  /// bit clear, so `from_pointer` and `from_index` can never collide. A
  /// 32-bit or exotic target where that assumption breaks fails to compile
  /// here instead of silently merging dependence chains.
  static constexpr std::uintptr_t kIndexTag =
      std::uintptr_t{1} << (std::numeric_limits<std::uintptr_t>::digits - 1);
  static_assert(std::numeric_limits<std::uintptr_t>::digits >= 64,
                "DatumId tags logical indices in the top pointer bit; a"
                " 64-bit uintptr_t is required so user-space addresses"
                " cannot reach the tag");

  static DatumId from_pointer(const void* p) noexcept {
    return DatumId{reinterpret_cast<std::uintptr_t>(p)};
  }
  static DatumId from_index(std::size_t i) noexcept {
    return DatumId{kIndexTag | i};
  }
  friend bool operator==(DatumId a, DatumId b) noexcept { return a.key == b.key; }
};

/// One declared access.
struct Dep {
  DatumId datum;
  Access mode = Access::Read;
};

/// Ready-task selection policy. The runtime has one: the ready task with
/// the highest priority runs first, and among equal priorities the one
/// submitted first. The enum and TaskGraph::set_policy remain only so that
/// callers naming them still compile; nothing reads the value.
enum class SchedPolicy : unsigned char {
  Priority,
};

/// Post-execution DAG statistics. The as-executed critical path is
/// obs::critical_path over the run's flight events.
struct GraphStats {
  std::size_t num_tasks = 0;
  std::size_t num_edges = 0;
  std::size_t critical_path_tasks = 0;   ///< longest chain, in tasks
  double total_task_seconds = 0.0;       ///< sum of task durations (each
                                         ///< worker sums its own)
  double makespan_seconds = 0.0;         ///< wall time of run()
  double parallel_efficiency(std::size_t workers) const {
    return (makespan_seconds > 0.0 && workers > 0)
               ? total_task_seconds / (makespan_seconds * static_cast<double>(workers))
               : 0.0;
  }
};

/// A statically-unrolled task DAG executed by run().
///
/// Usage:
///   TaskGraph g;
///   g.submit("potrf", {{id, Access::ReadWrite}}, [&]{ ... }, /*priority=*/10);
///   ...
///   g.run(4);
///
/// Thread-safety: submit() is not thread-safe (tasks are inserted by the
/// algorithm author in sequential program order — that order defines the
/// dependencies); run() executes bodies concurrently. Bodies must touch only
/// data they declared (CP.2/CP.3: the graph is the sharing discipline).
///
/// Every run records each task exactly twice, in the flight rings:
/// TaskBegin (op kind, releasing predecessor) and TaskFinish (kernel
/// annotation, duration). No event is recorded per edge, and none at all
/// in a GSX_TELEMETRY=OFF build.
class TaskGraph {
 public:
  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Add a task. `op` names its kind ("potrf", "gemm", ...; the first 8
  /// bytes before any '(' are recorded). Returns its index (its task id in
  /// the flight events).
  std::size_t submit(std::string_view op, const std::vector<Dep>& deps,
                     std::function<void()> body, int priority = 0);

  /// Add an externally-completed task: it has no body and is never handed to
  /// a worker thread. It completes when BOTH (a) its declared predecessors
  /// have finished and (b) notify() has been called for it — in either
  /// order. The distributed backend submits one per remote operand tile
  /// (declaring Write on the staging datum); the transport receiver thread
  /// notifies it when the tile arrives, which releases every local consumer
  /// without parking a worker in a blocking recv.
  std::size_t submit_external(std::string_view op, const std::vector<Dep>& deps);

  /// Mark an external task's out-of-band condition satisfied. Thread-safe;
  /// callable from any thread before or during run(). Calling it for a
  /// non-external task throws. Idempotent per task.
  void notify(std::size_t task_id);

  /// Execute the whole DAG on `num_workers` threads; blocks until complete.
  /// Rethrows the first task exception after quiescing the pool.
  void run(std::size_t num_workers);

  /// No-op: SchedPolicy has one value.
  void set_policy(SchedPolicy) noexcept {}

  [[nodiscard]] const GraphStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }

 private:
  struct Task {
    std::uint64_t op = 0;  ///< obs::pack_op_name of the submitted op kind
    std::function<void()> body;
    int priority = 0;
    bool external = false;  ///< completed via notify(), not a worker
    std::vector<std::size_t> successors;
    std::size_t num_predecessors = 0;
  };

  struct DatumState {
    // Last task that wrote the datum, and readers since that write.
    std::ptrdiff_t last_writer = -1;
    std::vector<std::size_t> readers_since_write;
  };

  struct RunCtx;  // live scheduler state, defined in task_graph.cpp

  std::size_t submit_impl(std::string_view op, const std::vector<Dep>& deps,
                          std::function<void()> body, int priority, bool external);
  void add_edge(std::size_t from, std::size_t to);
  void compute_critical_path();

  // Published while run() is active so notify() can reach the scheduler;
  // notifications arriving outside run() are parked in prenotified_ and
  // folded in when run() starts.
  std::atomic<RunCtx*> run_ctx_{nullptr};
  std::mutex prenotify_mtx_;
  std::vector<std::size_t> prenotified_;
  // Notifiers announce themselves here *before* loading run_ctx_; run()'s
  // teardown unpublishes the context and then drains this counter, so a
  // notifier that saw a live context always finishes before the context
  // (its mutex and cv) is destroyed.
  std::atomic<std::size_t> notify_inflight_{0};

  std::vector<Task> tasks_;
  std::unordered_map<std::uintptr_t, DatumState> data_;
  // De-duplication of edges during construction (cheap bloom via last edge).
  std::vector<std::ptrdiff_t> last_edge_target_;
  GraphStats stats_;
};

/// Parallel loop over [begin, end) with static chunking on a transient pool.
/// Used by covariance-matrix generation (one task per tile row block).
void parallel_for(std::size_t begin, std::size_t end, std::size_t num_workers,
                  const std::function<void(std::size_t)>& body);

}  // namespace gsx::rt
