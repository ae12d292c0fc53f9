// gsx_obs: offline observability toolkit.
//
// `merge` folds per-process flight-recorder dumps (the files written by the
// router's flight_collect verb, or any snapshot_jsonl output) into one
// causally-ordered fleet timeline. Each dump's header carries a wall-clock /
// monotonic-clock anchor pair; heartbeat send/ack/recv events supply an
// NTP-style per-replica clock-offset estimate on top of that, so events from
// different machines' clocks land in one order a human can read. See
// docs/observability.md ("Fleet observability") for a worked post-mortem.
//
// The analytics subcommands decode the task_begin/task_finish execution
// history (docs/observability.md, "Execution analytics"):
//   critical-path  as-executed chain of releasing predecessors + per-op-kind
//                  attribution + per-rank utilization
//   imbalance      per-worker busy/idle/queue-wait, Jain fairness,
//                  comm-vs-compute overlap
//   gantt          Chrome-trace (Perfetto) export of the merged timeline
// Each also accepts its --flag spelling (`gsx_obs --critical-path ...`), and
// FILE arguments may be flight_collect directories (all *.jsonl inside).
//
//   gsx_obs merge pm/flight-router.jsonl pm/flight-r0.jsonl pm/flight-r1.jsonl
//   gsx_obs merge --trace t-00c0ffee12345678 pm/*.jsonl   # one request's story
//   gsx_obs merge --offsets pm/*.jsonl                    # clock offsets only
//   gsx_obs merge --traces pm/*.jsonl                     # trace id inventory
//   gsx_obs critical-path dist_flight/                    # why was it slow?
//   gsx_obs imbalance dist_flight/                        # who sat idle?
//   gsx_obs gantt --out timeline.json dist_flight/        # chrome://tracing

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analytics.hpp"
#include "obs/flight_merge.hpp"

namespace {

constexpr const char* kNoTaskEvents =
    "no task_begin/task_finish events in the dumps (telemetry off, or a dump "
    "that predates them: its task_start/task_end/task_dep events are not decoded)";

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> [options] FILE|DIR...\n"
               "\n"
               "Offline analysis of flight-recorder JSONL dumps. A DIR argument\n"
               "reads every *.jsonl inside (flight_collect layout).\n"
               "\n"
               "merge (fleet timeline):\n"
               "  --trace ID       only events of one trace (\"t-<16 hex>\" or hex)\n"
               "  --offsets        print per-process clock offsets and exit\n"
               "  --traces         print the trace-id inventory and exit\n"
               "\n"
               "--critical-path   as-executed chain of releasing predecessors,\n"
               "                  per-op attribution, per-rank utilization\n"
               "--imbalance       per-worker busy/idle/queue-wait, Jain index,\n"
               "                  comm-vs-compute overlap\n"
               "--gantt           Chrome-trace export of the merged timeline\n"
               "  --out FILE      gantt output path (default gantt.json)\n"
               "  --json          critical-path/imbalance: machine-readable output\n",
               argv0);
}

std::uint64_t parse_hex_id(const std::string& s) {
  std::size_t begin = 0;
  if (s.size() > 2 && (s[0] == 't' || s[0] == 's') && s[1] == '-') begin = 2;
  return std::strtoull(s.c_str() + begin, nullptr, 16);
}

void print_event(const gsx::obs::MergedEvent& e) {
  std::printf("%17.6f  %-10s %-22s", e.t_wall, e.process.c_str(), e.kind.c_str());
  if (e.request != 0) std::printf(" req=r-%" PRIu64, e.request);
  if (e.trace != 0) std::printf(" trace=t-%016" PRIx64, e.trace);
  if (e.a != 0) std::printf(" a=%" PRIx64, e.a);
  if (e.b != 0) std::printf(" b=%" PRIx64, e.b);
  if (e.v != 0.0) std::printf(" v=%g", e.v);
  std::printf("\n");
}

/// Expand a path argument: plain file, or directory -> every *.jsonl inside.
std::vector<std::string> expand_path(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec))
      if (entry.path().extension() == ".jsonl") out.push_back(entry.path().string());
    std::sort(out.begin(), out.end());
    return out;
  }
  return {path};
}

bool load_dumps(const char* argv0, const std::vector<std::string>& args,
                std::vector<gsx::obs::FlightDump>& dumps) {
  std::vector<std::string> paths;
  for (const std::string& a : args) {
    const std::vector<std::string> expanded = expand_path(a);
    if (expanded.empty())
      std::fprintf(stderr, "%s: warning: no *.jsonl files in %s\n", argv0, a.c_str());
    paths.insert(paths.end(), expanded.begin(), expanded.end());
  }
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot read %s\n", argv0, path.c_str());
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    gsx::obs::FlightDump dump = gsx::obs::parse_flight_dump(buf.str());
    if (!dump.has_header)
      std::fprintf(stderr, "%s: warning: %s has no dump header; its events "
                   "stay on the raw monotonic clock\n", argv0, path.c_str());
    dumps.push_back(std::move(dump));
  }
  return !dumps.empty();
}

void print_utilization(const gsx::obs::UtilizationReport& u) {
  std::printf("per-rank utilization (window %.6f s):\n", u.window_seconds);
  for (const gsx::obs::WorkerUtilization& w : u.workers)
    std::printf("  %-10s worker %2" PRIu64
                "  %5zu tasks  busy %.6f s (%5.1f%%)  queue-wait %.6f s\n",
                w.process.c_str(), w.worker, w.tasks, w.busy_seconds,
                100.0 * w.utilization, w.queue_wait_seconds);
  std::printf("parallel efficiency %.1f%%  jain fairness %.3f\n",
              100.0 * u.parallel_efficiency, u.jain_fairness);
}

int cmd_critical_path(const char* argv0, const std::vector<std::string>& args,
                      bool as_json) {
  std::vector<gsx::obs::FlightDump> dumps;
  if (!load_dumps(argv0, args, dumps)) return 1;
  const gsx::obs::MergeResult merged = gsx::obs::merge_flight_dumps(dumps);
  const gsx::obs::ExecutionHistory history = gsx::obs::build_history(merged.timeline);
  const gsx::obs::AnalyticsReport report = gsx::obs::analyze(history);
  if (as_json) {
    std::printf("%s\n", gsx::obs::analytics_json(report, "").c_str());
    return 0;
  }
  const gsx::obs::CriticalPathReport& cp = report.critical_path;
  if (cp.length_tasks == 0) {
    std::fprintf(stderr, "%s: %s\n", argv0, kNoTaskEvents);
    return 1;
  }
  std::printf("critical path: %.6f s over %zu tasks (process %s, graph %" PRIu64
              ", wall span %.6f s, dominance %.1f%%)\n",
              cp.length_seconds, cp.length_tasks, cp.process.c_str(),
              cp.generation, cp.span_seconds, 100.0 * cp.dominance);
  if (!cp.complete)
    std::printf("warning: incomplete history (flight rings wrapped: task events of "
                "this graph are missing), so the real critical path may differ\n");
  std::printf("op attribution on the path:\n");
  for (const auto& [op, secs] : cp.op_seconds)
    std::printf("  %-10s %.6f s (%5.1f%%)\n", op.c_str(), secs,
                cp.length_seconds > 0.0 ? 100.0 * secs / cp.length_seconds : 0.0);
  std::printf("path (task ids): ");
  const std::size_t show = std::min<std::size_t>(cp.path.size(), 24);
  for (std::size_t i = 0; i < show; ++i)
    std::printf("%s%" PRIu64, i ? " -> " : "", cp.path[i]);
  if (show < cp.path.size())
    std::printf(" ... (%zu more)", cp.path.size() - show);
  std::printf("\n");
  print_utilization(report.utilization);
  return 0;
}

int cmd_imbalance(const char* argv0, const std::vector<std::string>& args,
                  bool as_json) {
  std::vector<gsx::obs::FlightDump> dumps;
  if (!load_dumps(argv0, args, dumps)) return 1;
  const gsx::obs::MergeResult merged = gsx::obs::merge_flight_dumps(dumps);
  const gsx::obs::ExecutionHistory history = gsx::obs::build_history(merged.timeline);
  const gsx::obs::AnalyticsReport report = gsx::obs::analyze(history);
  if (as_json) {
    std::printf("%s\n", gsx::obs::analytics_json(report, "").c_str());
    return 0;
  }
  if (report.utilization.workers.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv0, kNoTaskEvents);
    return 1;
  }
  print_utilization(report.utilization);
  std::printf("per-process busy seconds:\n");
  for (const auto& [proc, busy] : report.utilization.process_busy_seconds)
    std::printf("  %-10s %.6f s\n", proc.c_str(), busy);
  const gsx::obs::OverlapReport& ov = report.overlap;
  if (ov.comm_events > 0)
    std::printf("comm overlap: %zu wire events, %.1f%% during compute "
                "(%" PRIu64 " bytes, %" PRIu64 " overlapped)\n",
                ov.comm_events, 100.0 * ov.overlap_fraction, ov.bytes_total,
                ov.bytes_overlapped);
  else
    std::printf("comm overlap: no tile wire events (single process?)\n");
  return 0;
}

int cmd_gantt(const char* argv0, const std::vector<std::string>& args,
              const std::string& out) {
  std::vector<gsx::obs::FlightDump> dumps;
  if (!load_dumps(argv0, args, dumps)) return 1;
  const gsx::obs::MergeResult merged = gsx::obs::merge_flight_dumps(dumps);
  const gsx::obs::ExecutionHistory history = gsx::obs::build_history(merged.timeline);
  std::size_t tasks = 0;
  std::vector<std::string> procs;
  for (const gsx::obs::GraphExec& g : history.graphs) {
    tasks += g.tasks.size();
    procs.push_back(g.process);
  }
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  gsx::obs::write_gantt_trace(history, out);
  std::printf("gantt: wrote %s (%zu processes, %zu tasks, %zu wire events) -- "
              "load in chrome://tracing or ui.perfetto.dev\n",
              out.c_str(), procs.size(), tasks, history.comm.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  // Subcommands accept both spellings: `gsx_obs critical-path ...` and
  // `gsx_obs --critical-path ...`.
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") {
    usage(argv[0]);
    return 0;
  }
  if (cmd.rfind("--", 0) == 0) cmd = cmd.substr(2);

  const bool is_merge = cmd == "merge";
  const bool is_cp = cmd == "critical-path";
  const bool is_imb = cmd == "imbalance";
  const bool is_gantt = cmd == "gantt";
  if (!is_merge && !is_cp && !is_imb && !is_gantt) {
    std::fprintf(stderr, "%s: unknown command %s\n", argv[0], argv[1]);
    usage(argv[0]);
    return 2;
  }

  std::uint64_t trace_filter = 0;
  bool offsets_only = false;
  bool traces_only = false;
  bool as_json = false;
  std::string gantt_out = "gantt.json";
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (is_merge && arg == "--trace") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --trace needs a value\n", argv[0]);
        return 2;
      }
      trace_filter = parse_hex_id(argv[++i]);
      if (trace_filter == 0) {
        std::fprintf(stderr, "%s: unparseable trace id\n", argv[0]);
        return 2;
      }
    } else if (is_merge && arg == "--offsets") {
      offsets_only = true;
    } else if (is_merge && arg == "--traces") {
      traces_only = true;
    } else if (is_gantt && arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --out needs a value\n", argv[0]);
        return 2;
      }
      gantt_out = argv[++i];
    } else if ((is_cp || is_imb) && arg == "--json") {
      as_json = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    usage(argv[0]);
    return 2;
  }

  if (is_cp) return cmd_critical_path(argv[0], paths, as_json);
  if (is_imb) return cmd_imbalance(argv[0], paths, as_json);
  if (is_gantt) return cmd_gantt(argv[0], paths, gantt_out);

  std::vector<gsx::obs::FlightDump> dumps;
  if (!load_dumps(argv[0], paths, dumps)) return 1;

  const gsx::obs::MergeResult merged = gsx::obs::merge_flight_dumps(dumps);

  for (const auto& [process, offset] : merged.clock_offsets)
    std::printf("offset %-10s %+f s\n", process.c_str(), offset);
  if (offsets_only) return 0;

  if (traces_only) {
    for (const auto& [trace, indices] : merged.traces)
      std::printf("trace t-%016" PRIx64 "  %zu events\n", trace, indices.size());
    return 0;
  }

  std::size_t printed = 0;
  if (trace_filter != 0) {
    const auto it = merged.traces.find(trace_filter);
    if (it == merged.traces.end()) {
      std::fprintf(stderr, "%s: no events for trace t-%016" PRIx64 "\n",
                   argv[0], trace_filter);
      return 1;
    }
    for (const std::size_t i : it->second) {
      print_event(merged.timeline[i]);
      ++printed;
    }
  } else {
    for (const gsx::obs::MergedEvent& e : merged.timeline) {
      print_event(e);
      ++printed;
    }
  }
  std::fprintf(stderr, "%zu dumps, %zu events, %zu traces\n", dumps.size(),
               printed, merged.traces.size());
  return 0;
}
