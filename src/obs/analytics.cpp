#include "obs/analytics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace gsx::obs {

std::uint64_t pack_op_name(std::string_view name) noexcept {
  std::uint64_t packed = 0;
  std::size_t n = 0;
  for (char c : name) {
    if (c == '(' || n == 8) break;
    packed |= static_cast<std::uint64_t>(static_cast<unsigned char>(c)) << (8 * n);
    ++n;
  }
  return packed;
}

std::string unpack_op_name(std::uint64_t packed) {
  std::string out;
  for (std::size_t i = 0; i < 8; ++i) {
    const char c = static_cast<char>((packed >> (8 * i)) & 0xFF);
    if (c == '\0') break;
    out += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  if (out.empty()) out = "task";
  return out;
}

namespace {

struct GraphKey {
  std::string process;
  std::uint64_t generation;
  bool operator<(const GraphKey& o) const {
    if (process != o.process) return process < o.process;
    return generation < o.generation;
  }
};

/// Sorted, disjoint busy intervals; `contains` is a binary search.
struct IntervalSet {
  std::vector<std::pair<double, double>> spans;  ///< raw, merged on demand

  void add(double a, double b) {
    if (b > a) spans.emplace_back(a, b);
  }

  void merge() {
    std::sort(spans.begin(), spans.end());
    std::vector<std::pair<double, double>> out;
    for (const auto& s : spans) {
      if (!out.empty() && s.first <= out.back().second)
        out.back().second = std::max(out.back().second, s.second);
      else
        out.push_back(s);
    }
    spans = std::move(out);
  }

  [[nodiscard]] double total() const {
    double t = 0.0;
    for (const auto& s : spans) t += s.second - s.first;
    return t;
  }

  /// Requires merge() called first.
  [[nodiscard]] bool contains(double t) const {
    auto it = std::upper_bound(spans.begin(), spans.end(),
                               std::make_pair(t, std::numeric_limits<double>::max()));
    if (it == spans.begin()) return false;
    --it;
    return t >= it->first && t <= it->second;
  }
};

}  // namespace

ExecutionHistory build_history(const std::vector<MergedEvent>& timeline) {
  ExecutionHistory h;
  std::map<GraphKey, GraphExec> graphs;

  for (const MergedEvent& e : timeline) {
    const bool begin = e.kind == "task_begin";
    if (begin || e.kind == "task_finish") {
      const std::uint64_t gen = e.a >> 48;
      const std::uint64_t task = e.a & 0xFFFFFFFFFFull;
      GraphExec& g = graphs[GraphKey{e.process, gen}];
      g.process = e.process;
      g.generation = gen;
      TaskExec& t = g.tasks[task];
      t.task = task;
      t.worker = (e.a >> 40) & 0xFF;
      if (begin) {
        t.began = true;
        t.op = unpack_op_name(e.b);
        t.start = e.t_wall;
        if (e.v >= 1.0) t.releaser = static_cast<std::uint64_t>(e.v) - 1;
        if (!t.finished) t.end = t.start;
      } else {
        t.finished = true;
        t.annotation = unpack_annotation(e.b);
        t.end = e.t_wall;
        if (!t.began) t.start = t.end - e.v;
      }
    } else if (e.kind == "phase") {
      h.phases.push_back(PhaseExec{e.process,
                                   std::string(phase_name(static_cast<Phase>(e.a))),
                                   e.t_wall - e.v, e.t_wall});
    } else if (e.kind == "tile_send" || e.kind == "tile_recv") {
      h.comm.push_back(CommEvent{e.process, e.t_wall, e.b, e.kind == "tile_recv"});
    }
  }

  bool any = false;
  for (auto& [key, g] : graphs) {
    for (const auto& [id, t] : g.tasks) {
      if (!any) {
        h.t_min = t.start;
        h.t_max = t.end;
        any = true;
      }
      h.t_min = std::min(h.t_min, t.start);
      h.t_max = std::max(h.t_max, t.end);
    }
    h.graphs.push_back(std::move(g));
  }
  return h;
}

ExecutionHistory build_history(const std::vector<Event>& events,
                               const std::string& process) {
  std::vector<MergedEvent> timeline;
  timeline.reserve(events.size());
  for (const Event& e : events) {
    MergedEvent m;
    m.t_wall = e.t;
    m.t = e.t;
    m.process = process;
    m.kind = std::string(event_kind_name(e.kind));
    m.thread = e.thread;
    m.request = e.request;
    m.trace = e.trace;
    m.a = e.a;
    m.b = e.b;
    m.v = e.v;
    timeline.push_back(std::move(m));
  }
  return build_history(timeline);
}

CriticalPathReport critical_path(const GraphExec& g) {
  CriticalPathReport r;
  r.process = g.process;
  r.generation = g.generation;
  if (g.tasks.empty()) return r;

  r.complete = g.tasks.begin()->first == 0 && g.tasks.rbegin()->first + 1 == g.tasks.size();
  double total_task_seconds = 0.0;
  const TaskExec* last = nullptr;
  for (const auto& [id, t] : g.tasks) {
    if (!t.began || !t.finished || (t.releaser && !g.tasks.contains(*t.releaser)))
      r.complete = false;
    total_task_seconds += t.duration();
    if (last == nullptr || t.end >= last->end) last = &t;
  }

  // Walk the releasers back. A releaser is a predecessor, so its id is
  // smaller; stopping otherwise keeps a corrupt dump from looping.
  for (const TaskExec* t = last; t != nullptr;) {
    r.path.push_back(t->task);
    r.op_seconds[t->op] += t->duration();
    r.length_seconds += t->duration();
    const auto it = t->releaser && *t->releaser < t->task ? g.tasks.find(*t->releaser)
                                                          : g.tasks.end();
    t = it == g.tasks.end() ? nullptr : &it->second;
  }
  std::reverse(r.path.begin(), r.path.end());
  r.length_tasks = r.path.size();
  r.span_seconds = last->end - g.tasks.at(r.path.front()).start;
  if (total_task_seconds > 0.0) r.dominance = r.length_seconds / total_task_seconds;
  return r;
}

CriticalPathReport critical_path(const ExecutionHistory& h) {
  CriticalPathReport best;
  for (const GraphExec& g : h.graphs) {
    CriticalPathReport r = critical_path(g);
    // Any complete graph beats every incomplete one; then the longest wins.
    if (r.complete != best.complete ? r.complete
                                    : r.length_seconds > best.length_seconds)
      best = std::move(r);
  }
  return best;
}

UtilizationReport utilization(const ExecutionHistory& h) {
  UtilizationReport r;
  r.window_seconds = h.t_max - h.t_min;

  struct Lane {
    IntervalSet busy;
    std::size_t tasks = 0;
    double queue_wait = 0.0;
  };
  std::map<std::pair<std::string, std::uint64_t>, Lane> lanes;

  for (const GraphExec& g : h.graphs) {
    // A task's ready time: its releaser's end (seeds: the graph's first
    // observed start). start - ready is the scheduler-side queue wait —
    // time the task sat runnable without a worker.
    double g_t0 = 0.0;
    bool have_t0 = false;
    for (const auto& [id, t] : g.tasks) {
      if (!have_t0 || t.start < g_t0) g_t0 = t.start;
      have_t0 = true;
    }
    for (const auto& [id, t] : g.tasks) {
      if (t.worker == kExternalWorker) continue;
      Lane& lane = lanes[{g.process, t.worker}];
      lane.busy.add(t.start, t.end);
      ++lane.tasks;
      double ready = g_t0;
      if (t.releaser) {
        const auto it = g.tasks.find(*t.releaser);
        if (it != g.tasks.end()) ready = it->second.end;
      }
      lane.queue_wait += std::max(0.0, t.start - ready);
    }
  }

  double sum = 0.0;
  double sumsq = 0.0;
  for (auto& [key, lane] : lanes) {
    lane.busy.merge();
    WorkerUtilization w;
    w.process = key.first;
    w.worker = key.second;
    w.tasks = lane.tasks;
    w.busy_seconds = lane.busy.total();
    w.queue_wait_seconds = lane.queue_wait;
    w.utilization = r.window_seconds > 0.0 ? w.busy_seconds / r.window_seconds : 0.0;
    r.process_busy_seconds[w.process] += w.busy_seconds;
    sum += w.busy_seconds;
    sumsq += w.busy_seconds * w.busy_seconds;
    r.workers.push_back(std::move(w));
  }
  const std::size_t n = r.workers.size();
  if (n > 0 && sumsq > 0.0)
    r.jain_fairness = (sum * sum) / (static_cast<double>(n) * sumsq);
  if (n > 0 && r.window_seconds > 0.0)
    r.parallel_efficiency = sum / (r.window_seconds * static_cast<double>(n));
  return r;
}

OverlapReport comm_overlap(const ExecutionHistory& h) {
  OverlapReport r;
  // Busy union per process (all workers, all graphs).
  std::map<std::string, IntervalSet> busy;
  for (const GraphExec& g : h.graphs)
    for (const auto& [id, t] : g.tasks)
      if (t.worker != kExternalWorker) busy[g.process].add(t.start, t.end);
  for (auto& [proc, set] : busy) set.merge();

  for (const CommEvent& c : h.comm) {
    ++r.comm_events;
    r.bytes_total += c.bytes;
    const auto it = busy.find(c.process);
    if (it != busy.end() && it->second.contains(c.t)) {
      ++r.overlapped_events;
      r.bytes_overlapped += c.bytes;
    }
  }
  if (r.comm_events > 0)
    r.overlap_fraction = static_cast<double>(r.overlapped_events) /
                         static_cast<double>(r.comm_events);
  return r;
}

AnalyticsReport analyze(const ExecutionHistory& h) {
  AnalyticsReport r;
  r.critical_path = critical_path(h);
  r.utilization = utilization(h);
  r.overlap = comm_overlap(h);
  return r;
}

void export_analytics_metrics(const AnalyticsReport& r) {
  auto& reg = Registry::instance();
  reg.gauge("obs.analytics.critical_path_seconds").set(r.critical_path.length_seconds);
  reg.gauge("obs.analytics.critical_path_tasks")
      .set(static_cast<double>(r.critical_path.length_tasks));
  reg.gauge("obs.analytics.parallel_efficiency").set(r.utilization.parallel_efficiency);
  reg.gauge("obs.analytics.jain_fairness").set(r.utilization.jain_fairness);
  reg.gauge("obs.analytics.overlap_fraction").set(r.overlap.overlap_fraction);
  reg.gauge("obs.analytics.window_seconds").set(r.utilization.window_seconds);
}

std::string analytics_json(const AnalyticsReport& r, const std::string& indent) {
  std::ostringstream os;
  os << std::setprecision(9);
  const std::string in2 = indent + "  ";
  os << "{\n" << in2 << "\"critical_path\": {\"seconds\": "
     << r.critical_path.length_seconds
     << ", \"tasks\": " << r.critical_path.length_tasks
     << ", \"span_seconds\": " << r.critical_path.span_seconds
     << ", \"dominance\": " << r.critical_path.dominance
     << ", \"complete\": " << (r.critical_path.complete ? "true" : "false")
     << ", \"process\": \"" << json_escape(r.critical_path.process) << "\",\n"
     << in2 << "  \"op_seconds\": {";
  bool first = true;
  for (const auto& [op, secs] : r.critical_path.op_seconds) {
    os << (first ? "" : ", ") << "\"" << json_escape(op) << "\": " << secs;
    first = false;
  }
  os << "}},\n";
  os << in2 << "\"utilization\": {\"window_seconds\": " << r.utilization.window_seconds
     << ", \"parallel_efficiency\": " << r.utilization.parallel_efficiency
     << ", \"jain_fairness\": " << r.utilization.jain_fairness
     << ", \"workers\": [";
  for (std::size_t i = 0; i < r.utilization.workers.size(); ++i) {
    const WorkerUtilization& w = r.utilization.workers[i];
    os << (i ? "," : "") << "\n" << in2 << "  {\"process\": \""
       << json_escape(w.process) << "\", \"worker\": " << w.worker
       << ", \"tasks\": " << w.tasks << ", \"busy_seconds\": " << w.busy_seconds
       << ", \"queue_wait_seconds\": " << w.queue_wait_seconds
       << ", \"utilization\": " << w.utilization << "}";
  }
  os << (r.utilization.workers.empty() ? "]" : "\n" + in2 + "]") << "},\n";
  os << in2 << "\"overlap\": {\"comm_events\": " << r.overlap.comm_events
     << ", \"overlapped_events\": " << r.overlap.overlapped_events
     << ", \"bytes_total\": " << r.overlap.bytes_total
     << ", \"bytes_overlapped\": " << r.overlap.bytes_overlapped
     << ", \"fraction\": " << r.overlap.overlap_fraction << "}\n"
     << indent << "}";
  return os.str();
}

void write_gantt_trace(const ExecutionHistory& h, const std::string& path) {
  std::ofstream os(path);
  GSX_REQUIRE(os.good(), "write_gantt_trace: cannot open " + path);
  os << std::fixed << std::setprecision(3);

  // Stable pid per process name; tid = worker lane (external lane 255), the
  // phases on the pipeline row, wire events on their own lane.
  constexpr int kPipelineTid = 999;
  constexpr int kWireTid = 300;
  std::map<std::string, int> pids;
  for (const GraphExec& g : h.graphs)
    pids.emplace(g.process, static_cast<int>(pids.size()) + 1);
  for (const PhaseExec& p : h.phases)
    pids.emplace(p.process, static_cast<int>(pids.size()) + 1);
  for (const CommEvent& c : h.comm)
    pids.emplace(c.process, static_cast<int>(pids.size()) + 1);

  os << "[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [proc, pid] : pids) {
    sep();
    os << R"(  {"name": "process_name", "ph": "M", "pid": )" << pid
       << R"(, "args": {"name": ")" << json_escape(proc) << "\"}}";
  }
  double t0 = h.t_min;
  for (const PhaseExec& p : h.phases) t0 = std::min(t0, p.start);
  std::set<std::string> pipelines;
  for (const PhaseExec& p : h.phases) {
    if (pipelines.insert(p.process).second) {
      sep();
      os << R"(  {"name": "thread_name", "ph": "M", "pid": )" << pids[p.process]
         << R"(, "tid": )" << kPipelineTid << R"(, "args": {"name": "pipeline"}})";
    }
    sep();
    os << R"(  {"name": ")" << json_escape(p.name) << R"(", "cat": "phase", "ph": "X", "ts": )"
       << (p.start - t0) * 1e6 << R"(, "dur": )" << (p.end - p.start) * 1e6
       << R"(, "pid": )" << pids[p.process] << R"(, "tid": )" << kPipelineTid << "}";
  }
  for (const GraphExec& g : h.graphs) {
    const int pid = pids[g.process];
    for (const auto& [id, t] : g.tasks) {
      sep();
      os << R"(  {"name": ")" << json_escape(t.op) << R"(", "cat": "task", "ph": "X", "ts": )"
         << (t.start - t0) * 1e6 << R"(, "dur": )" << t.duration() * 1e6
         << R"(, "pid": )" << pid << R"(, "tid": )" << t.worker
         << R"(, "args": {"task": )" << t.task << R"(, "gen": )" << g.generation;
      if (t.annotation) {
        os << R"(, "precision": ")" << precision_name(t.annotation->precision) << "\"";
        if (t.annotation->rank >= 0) os << R"(, "rank": )" << t.annotation->rank;
        if (t.annotation->flops > 0) os << R"(, "flops": )" << t.annotation->flops;
      }
      os << "}}";
    }
  }
  // Tile wire activity as instant events on a dedicated lane per process.
  for (const CommEvent& c : h.comm) {
    sep();
    os << R"(  {"name": ")" << (c.recv ? "tile_recv" : "tile_send")
       << R"(", "cat": "wire", "ph": "i", "s": "t", "ts": )" << (c.t - t0) * 1e6
       << R"(, "pid": )" << pids[c.process] << R"(, "tid": )" << kWireTid
       << R"(, "args": {"bytes": )" << c.bytes << "}}";
  }
  os << "\n]\n";
  GSX_REQUIRE(os.good(), "write_gantt_trace: write failed for " + path);
}

}  // namespace gsx::obs
