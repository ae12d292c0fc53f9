#include "runtime/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <numeric>
#include <queue>
#include <thread>

#include "common/error.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gsx::rt {

std::size_t TaskGraph::submit(std::string_view op, const std::vector<Dep>& deps,
                              std::function<void()> body, int priority) {
  GSX_REQUIRE(body != nullptr, "submit: task body must be callable");
  return submit_impl(op, deps, std::move(body), priority, /*external=*/false);
}

std::size_t TaskGraph::submit_external(std::string_view op,
                                       const std::vector<Dep>& deps) {
  return submit_impl(op, deps, nullptr, /*priority=*/0, /*external=*/true);
}

std::size_t TaskGraph::submit_impl(std::string_view op, const std::vector<Dep>& deps,
                                   std::function<void()> body, int priority,
                                   bool external) {
  const std::size_t id = tasks_.size();
  Task t;
  t.op = obs::pack_op_name(op);
  t.body = std::move(body);
  t.priority = priority;
  t.external = external;
  tasks_.push_back(std::move(t));
  last_edge_target_.push_back(-1);

  for (const Dep& d : deps) {
    DatumState& st = data_[d.datum.key];
    switch (d.mode) {
      case Access::Read:
        if (st.last_writer >= 0) add_edge(static_cast<std::size_t>(st.last_writer), id);
        st.readers_since_write.push_back(id);
        break;
      case Access::Write:
      case Access::ReadWrite:
        if (st.readers_since_write.empty()) {
          if (st.last_writer >= 0) add_edge(static_cast<std::size_t>(st.last_writer), id);
        } else {
          for (std::size_t r : st.readers_since_write)
            if (r != id) add_edge(r, id);
          // Readers already depend on last_writer, so the WAW edge through
          // them is transitively implied, but keep the direct edge when the
          // writer itself also read (ReadWrite chains).
          if (st.last_writer >= 0 &&
              std::find(st.readers_since_write.begin(), st.readers_since_write.end(),
                        static_cast<std::size_t>(st.last_writer)) ==
                  st.readers_since_write.end()) {
            add_edge(static_cast<std::size_t>(st.last_writer), id);
          }
        }
        st.last_writer = static_cast<std::ptrdiff_t>(id);
        st.readers_since_write.clear();
        break;
    }
  }
  return id;
}

void TaskGraph::add_edge(std::size_t from, std::size_t to) {
  if (from == to) return;
  // Cheap de-duplication: tile algorithms generate runs of identical edges.
  if (last_edge_target_[from] == static_cast<std::ptrdiff_t>(to)) return;
  tasks_[from].successors.push_back(to);
  last_edge_target_[from] = static_cast<std::ptrdiff_t>(to);
  ++tasks_[to].num_predecessors;
  ++stats_.num_edges;
}

namespace {

/// Min-heap comparator selecting the highest-priority, earliest-submitted task.
struct ReadyCompare {
  const std::vector<int>* priorities;
  bool operator()(std::size_t a, std::size_t b) const {
    const int pa = (*priorities)[a];
    const int pb = (*priorities)[b];
    if (pa != pb) return pa < pb;  // higher priority first
    return a > b;                  // earlier submission first
  }
};

}  // namespace

// Live scheduler state for one run(). Hoisted out of run()'s stack frame so
// notify() — called from threads the graph does not own, e.g. the transport
// receiver — can complete external tasks and wake workers through the same
// mutex/cv discipline the worker pool uses. All methods require ctx->mtx held.
struct TaskGraph::RunCtx {
  TaskGraph& g;

  std::mutex mtx;
  std::condition_variable cv;
  std::vector<std::size_t> remaining;
  std::vector<int> priorities;
  std::vector<char> notified;       // external: notify() seen
  std::vector<char> done_external;  // external: counted into `completed`
  /// Releasing predecessor's id + 1, set when a task's counter reaches
  /// zero (0 = seed, or an external whose notify() came last). Carried in
  /// TaskBegin's v.
  std::vector<std::size_t> released_by;
  std::priority_queue<std::size_t, std::vector<std::size_t>, ReadyCompare> ready;
  std::size_t completed = 0;
  std::exception_ptr first_error;
  std::atomic<bool> aborting{false};
  std::atomic<std::size_t> inflight{0};
  obs::Gauge& queue_depth_gauge;
  /// Process-wide run() generation, folded into the TaskBegin/TaskFinish
  /// identities so concurrent graphs (in-process dist ranks, serving solves)
  /// replay as separate DAGs. 16 bits: wraps harmlessly — generations only
  /// need to be distinct among graphs alive in one flight-ring window.
  std::uint64_t generation = 0;
  /// False when this run has more workers than the packed 8-bit worker lane
  /// holds: the task events are skipped rather than emitted with aliased
  /// identities.
  bool dag_events = true;

  RunCtx(TaskGraph& graph, obs::Gauge& gauge)
      : g(graph),
        remaining(graph.tasks_.size()),
        priorities(graph.tasks_.size()),
        notified(graph.tasks_.size(), 0),
        done_external(graph.tasks_.size(), 0),
        released_by(graph.tasks_.size(), 0),
        ready(ReadyCompare{&priorities}),
        queue_depth_gauge(gauge) {
    for (std::size_t i = 0; i < graph.tasks_.size(); ++i) {
      remaining[i] = graph.tasks_[i].num_predecessors;
      priorities[i] = graph.tasks_[i].priority;
    }
  }

  bool have_ready() const { return !ready.empty(); }

  void push_ready(std::size_t id) {
    ready.push(id);
    queue_depth_gauge.set(static_cast<double>(ready.size()));
  }

  std::size_t pop_ready() {
    const std::size_t id = ready.top();
    ready.pop();
    queue_depth_gauge.set(static_cast<double>(ready.size()));
    return id;
  }

  // Release `id`'s successors after it completed: non-external successors
  // whose counter hits zero become ready; external successors complete in
  // place if already notified (their "execution" is the notification).
  // Returns the number of tasks pushed ready (== cv.notify_one budget).
  std::size_t propagate(std::size_t id) {
    std::size_t newly = 0;
    for (std::size_t s : g.tasks_[id].successors) {
      GSX_REQUIRE(remaining[s] > 0, "runtime: dependency counter underflow");
      if (--remaining[s] == 0) {
        // An external not yet notified is released by its notify(): 0.
        released_by[s] = g.tasks_[s].external && !notified[s] ? 0 : id + 1;
        if (g.tasks_[s].external) {
          if (notified[s]) newly += complete_external(s);
        } else {
          push_ready(s);
          ++newly;
        }
      }
    }
    return newly;
  }

  // Complete one external task (preds done AND notified) and cascade through
  // any external-only chains hanging off it. Recursion depth is bounded by
  // the longest external chain in the DAG (one, for the dist backend's
  // recv tasks).
  std::size_t complete_external(std::size_t id) {
    if (done_external[id]) return 0;
    done_external[id] = 1;
    ++completed;
    // Externals have no body: their completion instant is both begin and
    // finish (duration 0).
    if (dag_events) {
      const std::uint64_t ident = obs::task_ident(generation, obs::kExternalWorker, id);
      GSX_FLIGHT(obs::EventKind::TaskBegin, 0, ident, g.tasks_[id].op,
                 static_cast<double>(released_by[id]));
      GSX_FLIGHT(obs::EventKind::TaskFinish, 0, ident, 0, 0.0);
    }
    return propagate(id);
  }

  // notify() body once the context is published. Takes the lock itself.
  void handle_notify(std::size_t id) {
    std::size_t newly = 0;
    bool quiesced = false;
    {
      std::lock_guard lk(mtx);
      if (notified[id]) return;  // idempotent
      notified[id] = 1;
      if (remaining[id] == 0) newly = complete_external(id);
      quiesced = completed == g.tasks_.size();
    }
    if (quiesced) {
      cv.notify_all();
    } else {
      for (std::size_t i = 0; i < newly; ++i) cv.notify_one();
    }
  }
};

void TaskGraph::notify(std::size_t task_id) {
  GSX_REQUIRE(task_id < tasks_.size() && tasks_[task_id].external,
              "notify: not an external task id");
  // Announce before loading the context (both seq_cst): run()'s teardown
  // stores nullptr and then waits for this counter to drain, so either this
  // load sees the unpublish (and parks below) or the teardown sees the
  // increment and keeps the context alive until handle_notify returns.
  notify_inflight_.fetch_add(1, std::memory_order_seq_cst);
  RunCtx* ctx = run_ctx_.load(std::memory_order_seq_cst);
  if (ctx != nullptr) {
    ctx->handle_notify(task_id);
    notify_inflight_.fetch_sub(1, std::memory_order_release);
    return;
  }
  notify_inflight_.fetch_sub(1, std::memory_order_release);
  std::lock_guard lk(prenotify_mtx_);
  // Re-check under the same lock run() takes when publishing the context
  // and folding prenotifications, so this notification is seen exactly once.
  // Holding the lock here also excludes run()'s unpublish, which keeps the
  // context alive for the duration of the call.
  ctx = run_ctx_.load(std::memory_order_acquire);
  if (ctx == nullptr) {
    prenotified_.push_back(task_id);
    return;
  }
  ctx->handle_notify(task_id);
}

void TaskGraph::run(std::size_t num_workers) {
  GSX_REQUIRE(num_workers >= 1, "run: need at least one worker");
  stats_.num_tasks = tasks_.size();
  if (tasks_.empty()) return;

  // The registry lookup takes a mutex; this path runs once per task, so
  // resolve the gauge once (references stay valid across Registry::reset()).
  static obs::Gauge& queue_depth_gauge =
      obs::Registry::instance().gauge("taskgraph.queue_depth");
  static obs::Gauge& inflight_gauge =
      obs::Registry::instance().gauge("taskgraph.inflight");

  RunCtx ctx(*this, queue_depth_gauge);

  // Stamp this run's DAG identity: every task event carries it.
  {
    static std::atomic<std::uint64_t> run_generation{0};
    ctx.generation = run_generation.fetch_add(1, std::memory_order_relaxed) & 0xFFFF;
  }
  // The packed identity carries an 8-bit worker lane (0xFF reserved for
  // externals); a run past that width would alias worker 255 with
  // externals. Degrade explicitly: warn once and skip the task events, so
  // such a run leaves no task events in the flight rings.
  ctx.dag_events = num_workers <= obs::kExternalWorker;
  if (!ctx.dag_events) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed))
      std::fprintf(stderr,
                   "gsx: task flight events disabled for this run: %zu workers "
                   "exceed the packed 8-bit worker field\n",
                   num_workers);
  }

  // Seed tasks with no predecessors. Externals never enter the ready queue:
  // a zero-predecessor external simply waits for its notify().
  {
    std::lock_guard lk(ctx.mtx);
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      if (ctx.remaining[i] == 0 && !tasks_[i].external) ctx.push_ready(i);
  }

  // Publish the context, then replay notifications that arrived before run().
  // Both under prenotify_mtx_ so a concurrent notify() either parks in
  // prenotified_ (and is replayed here) or sees the context (and goes through
  // handle_notify directly) — never both, never neither.
  std::vector<std::size_t> pre;
  {
    std::lock_guard lk(prenotify_mtx_);
    run_ctx_.store(&ctx, std::memory_order_release);
    pre = std::move(prenotified_);
    prenotified_.clear();
  }
  for (std::size_t id : pre) ctx.handle_notify(id);

  const double run_start = obs::now_seconds();
  std::vector<double> task_seconds(num_workers, 0.0);
  auto worker_loop = [&](std::size_t worker_id) {
    double busy = 0.0;
    for (;;) {
      std::size_t id;
      std::size_t releaser;
      {
        std::unique_lock lk(ctx.mtx);
        ctx.cv.wait(lk, [&] {
          return ctx.have_ready() || ctx.completed == tasks_.size() ||
                 ctx.aborting.load();
        });
        if (ctx.completed == tasks_.size() ||
            (ctx.aborting.load() && !ctx.have_ready()))
          break;
        if (!ctx.have_ready()) continue;
        id = ctx.pop_ready();
        releaser = ctx.released_by[id];
      }

      Task& t = tasks_[id];
      const std::uint64_t ident = obs::task_ident(ctx.generation, worker_id, id);
      if (ctx.dag_events)
        GSX_FLIGHT(obs::EventKind::TaskBegin, 0, ident, t.op,
                   static_cast<double>(releaser));
      inflight_gauge.set(static_cast<double>(
          ctx.inflight.fetch_add(1, std::memory_order_relaxed) + 1));
      const double t0 = obs::now_seconds();
      if (!ctx.aborting.load(std::memory_order_acquire)) {
        try {
          t.body();
        } catch (...) {
          {
            std::lock_guard lk(ctx.mtx);
            if (!ctx.first_error) ctx.first_error = std::current_exception();
            ctx.aborting.store(true, std::memory_order_release);
          }
          // Everyone must observe the abort, including sleepers with no
          // ready work: this is one of the two broadcast points.
          ctx.cv.notify_all();
        }
      }
      const double seconds = obs::now_seconds() - t0;
      busy += seconds;
      inflight_gauge.set(static_cast<double>(
          ctx.inflight.fetch_sub(1, std::memory_order_relaxed) - 1));
      // Kernel-attached metadata (precision, rank, flops), drained for every
      // task so a stale annotation never leaks onto a later one.
      const auto ann = obs::take_task_annotation();
      if (ctx.dag_events)
        GSX_FLIGHT(obs::EventKind::TaskFinish, 0, ident,
                   ann ? obs::pack_annotation(*ann) : 0, seconds);

      std::size_t newly_ready = 0;
      bool quiesced = false;
      {
        std::lock_guard lk(ctx.mtx);
        ++ctx.completed;
        newly_ready = ctx.propagate(id);
        quiesced = ctx.completed == tasks_.size();
      }
      // Wake one sleeper per newly-ready task — a broadcast here stampedes
      // every idle worker onto one mutex per completed task. Notifies that
      // land on busy workers are harmless: cv.wait re-checks have_ready()
      // before sleeping. Broadcast only at quiesce (and at abort, above),
      // where *all* waiters must observe the terminal state.
      if (quiesced) {
        ctx.cv.notify_all();
      } else {
        for (std::size_t i = 0; i < newly_ready; ++i) ctx.cv.notify_one();
      }
    }
    task_seconds[worker_id] = busy;
  };

  if (num_workers == 1) {
    worker_loop(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w)
      pool.emplace_back(worker_loop, w);
    // jthread joins on destruction (CP.25): scope end is the barrier.
  }

  // Unpublish before ctx leaves scope. Late notifications (e.g. a transport
  // message after an abort tore the run down) park harmlessly in prenotified_.
  {
    std::lock_guard lk(prenotify_mtx_);
    run_ctx_.store(nullptr, std::memory_order_seq_cst);
  }
  // Drain notifiers that loaded the context before the unpublish: ctx (its
  // mutex and cv) must outlive their handle_notify calls, or a late
  // transport delivery signals a destroyed condition variable.
  while (notify_inflight_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();

  stats_.makespan_seconds = obs::now_seconds() - run_start;
  stats_.total_task_seconds = std::accumulate(task_seconds.begin(), task_seconds.end(), 0.0);
  compute_critical_path();

  auto& reg = obs::Registry::instance();
  reg.gauge("taskgraph.workers").set(static_cast<double>(num_workers));
  if (stats_.makespan_seconds > 0.0) {
    reg.gauge("taskgraph.worker_utilization")
        .set(stats_.total_task_seconds /
             (stats_.makespan_seconds * static_cast<double>(num_workers)));
  }

  if (ctx.first_error) std::rethrow_exception(ctx.first_error);
  GSX_REQUIRE(ctx.completed == tasks_.size(), "runtime: DAG did not quiesce (cycle?)");
}

void TaskGraph::compute_critical_path() {
  // Longest path by task count, via reverse topological order (tasks_
  // indices are already topologically consistent: every edge goes from a
  // lower to a higher submission index).
  const std::size_t n = tasks_.size();
  std::vector<std::size_t> depth(n, 1);
  std::size_t best = 0;
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t s : tasks_[i].successors) depth[i] = std::max(depth[i], 1 + depth[s]);
    best = std::max(best, depth[i]);
  }
  stats_.critical_path_tasks = best;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t num_workers,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  num_workers = std::max<std::size_t>(1, std::min(num_workers, n));
  if (num_workers == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{begin};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::mutex err_mtx;
  {
    std::vector<std::jthread> pool;
    pool.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) {
      pool.emplace_back([&] {
        // The abort check in the claim loop makes the pool quiesce promptly
        // after a sibling's exception instead of grinding through the
        // remaining iterations whose results would be discarded anyway.
        while (!abort.load(std::memory_order_acquire)) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= end) return;
          try {
            body(i);
          } catch (...) {
            {
              std::lock_guard lk(err_mtx);
              if (!first_error) first_error = std::current_exception();
            }
            abort.store(true, std::memory_order_release);
            return;
          }
        }
      });
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gsx::rt
