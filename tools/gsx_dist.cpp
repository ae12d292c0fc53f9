// gsx_dist: distributed tile Cholesky across real worker processes.
//
//   gsx_dist run --n 512 --tile 64 --procs 4 --policy mp --verify
//
// `run` is the launcher: it starts the NDJSON coordinator (rank rendezvous,
// barriers, allreduce — docs/distributed.md), forks one worker process per
// rank (re-exec'ing this binary with the `worker` subcommand), waits for
// them, and prints the merged wire/spill summary. Workers exchange tiles
// directly over the loopback data plane at their *stored* precision: an FP16
// tile costs 2 bytes/element on the wire, a TLR tile ships only its U/V
// factors.
//
// `worker` is internal (the launcher invokes it); documented here so a rank
// can be run by hand against a live coordinator when debugging.

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/dist_cholesky.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "serve/listener.hpp"

namespace {

using gsx::dist::DistProblemConfig;
using gsx::dist::DistRunConfig;

struct Options {
  DistProblemConfig prob;
  DistRunConfig run;
  bool verify = false;
  bool expect_spill = false;
  int metrics_port = -1;  // Prometheus scrape port per worker (-1 off, 0 ephemeral)
  std::string flight_dir;
  std::string json_path;
  std::string spill_base;  // launcher-side; workers get spill_base/r<rank>
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run|worker [options]\n"
               "\n"
               "run: launch a distributed factorization on this machine\n"
               "  --n N             matrix dimension (default 512)\n"
               "  --tile N          tile size (default 64)\n"
               "  --procs K         worker processes (default 4)\n"
               "  --workers W       task-graph threads per worker (default 2)\n"
               "  --policy P        dense | mp | tlr (default dense)\n"
               "  --seed S          problem seed (default 7)\n"
               "  --ooc-bytes B     out-of-core tile pool bound per rank\n"
               "                    (0 = everything resident; default)\n"
               "  --spill-dir DIR   spill directory (required with --ooc-bytes)\n"
               "  --verify          rank 0 recomputes the factor single-process\n"
               "                    and compares element-wise at stored precision\n"
               "  --expect-spill    fail unless the run spilled at least one tile\n"
               "  --flight-dir DIR  dump per-process flight recorders\n"
               "                    (coord.jsonl, w<rank>.jsonl) for gsx_obs merge\n"
               "  --json PATH       write a run summary as JSON\n"
               "  --metrics-port P  per-worker Prometheus scrape port (dist.pool.*,\n"
               "                    taskgraph.*; use 0 so each rank binds an\n"
               "                    ephemeral port, printed at startup)\n"
               "\n"
               "worker: one rank, launched by `run` (internal)\n"
               "  --rank R --procs K --coord-port P  + the problem flags above\n",
               argv0);
}

bool parse_common(Options& o, const std::string& arg,
                  const std::function<std::string()>& value) {
  if (arg == "--n") {
    o.prob.n = std::stoul(value());
  } else if (arg == "--tile") {
    o.prob.tile_size = std::stoul(value());
  } else if (arg == "--seed") {
    o.prob.seed = std::stoull(value());
  } else if (arg == "--procs") {
    o.run.nprocs = static_cast<int>(std::stoul(value()));
  } else if (arg == "--workers") {
    o.run.workers = std::stoul(value());
  } else if (arg == "--policy") {
    o.run.policy = gsx::dist::parse_dist_policy(value());
  } else if (arg == "--ooc-bytes") {
    o.run.ooc_bytes = std::stoull(value());
  } else if (arg == "--verify") {
    o.verify = true;
  } else if (arg == "--flight-dir") {
    o.flight_dir = value();
  } else if (arg == "--metrics-port") {
    try {
      o.metrics_port = static_cast<int>(std::stol(value()));
    } catch (const std::exception&) {
      std::fprintf(stderr, "gsx_dist: --metrics-port needs a port number\n");
      std::exit(2);
    }
  } else {
    return false;
  }
  return true;
}

void dump_flight(const std::string& dir, const std::string& name) {
  if (dir.empty()) return;
  gsx::obs::FlightRecorder::instance().dump(dir + "/" + name + ".jsonl");
}

int worker_main(Options o) {
  gsx::obs::set_enabled(true);
  const std::string name = "w" + std::to_string(o.run.rank);
  gsx::obs::FlightRecorder::instance().set_process_name(name);

  // Per-rank Prometheus exposition: a LineListener with only the metrics
  // scrape side active (the control socket stays ephemeral and unserved).
  // Scrapes see this rank's registry — dist.pool.*, taskgraph.*, la.* — live
  // during the factorization.
  std::unique_ptr<gsx::serve::LineListener> metrics;
  if (o.metrics_port >= 0) {
    try {
      gsx::serve::LineListener::Config cfg;
      cfg.tcp_port = 0;
      cfg.metrics_port = o.metrics_port;
      cfg.log_tag = "dist";
      metrics = std::make_unique<gsx::serve::LineListener>(
          std::move(cfg), [](const std::string&) { return std::string(); });
      metrics->listen();
      std::printf("gsx_dist %s: metrics on http://127.0.0.1:%u/metrics\n",
                  name.c_str(), metrics->metrics_port());
    } catch (const std::exception& e) {
      // Scrape exposition is best-effort: a bind failure (port taken) must
      // not take the rank — and with it the whole fleet — down.
      std::fprintf(stderr, "gsx_dist %s: metrics listener unavailable (%s)\n",
                   name.c_str(), e.what());
      metrics.reset();
    }
    std::fflush(stdout);
  }

  try {
    gsx::dist::DistResult res = gsx::dist::run_dist_rank(o.prob, o.run);
    std::printf("gsx_dist %s: factor %.3fs, sent %llu tiles / %llu bytes\n",
                name.c_str(), res.factor_seconds,
                static_cast<unsigned long long>(res.stats.tiles_sent),
                static_cast<unsigned long long>(res.stats.bytes_sent));
    if (o.run.rank == 0 && o.verify) {
      const auto oracle = gsx::dist::oracle_factor(o.prob, o.run.policy,
                                                   res.global_norm, o.run.workers);
      const gsx::dist::FactorComparison cmp =
          gsx::dist::compare_factors(*res.factor, *oracle);
      std::printf("gsx_dist %s: verify %s (%zu tiles, max |diff| %.3e)\n",
                  name.c_str(), cmp.identical ? "OK" : "MISMATCH",
                  cmp.tiles_compared, cmp.max_abs_diff);
      if (!cmp.identical) {
        dump_flight(o.flight_dir, name);
        if (metrics) metrics->shutdown();
        return 1;
      }
    }
    dump_flight(o.flight_dir, name);
    if (metrics) metrics->shutdown();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsx_dist %s: %s\n", name.c_str(), e.what());
    dump_flight(o.flight_dir, name);
    if (metrics) metrics->shutdown();
    try {
      gsx::dist::CoordClient client(o.run.coord_port, o.run.rank);
      client.done(false, e.what());
    } catch (...) {
      // coordinator unreachable: the launcher sees the exit status instead
    }
    return 1;
  }
}

int run_main(Options o, const char* self) {
  gsx::obs::set_enabled(true);
  gsx::obs::FlightRecorder::instance().set_process_name("coord");
  if (o.run.ooc_bytes > 0 && o.spill_base.empty()) {
    std::fprintf(stderr, "gsx_dist: --ooc-bytes needs --spill-dir\n");
    return 2;
  }
  if (!o.spill_base.empty()) ::mkdir(o.spill_base.c_str(), 0755);
  if (!o.flight_dir.empty()) ::mkdir(o.flight_dir.c_str(), 0755);

  gsx::dist::Coordinator coord(o.run.nprocs);
  const std::uint16_t port = coord.start();
  std::printf("gsx_dist: coordinator on 127.0.0.1:%u, %d ranks, policy %s\n", port,
              o.run.nprocs, gsx::dist::dist_policy_name(o.run.policy));
  std::fflush(stdout);

  std::vector<pid_t> pids;
  for (int rank = 0; rank < o.run.nprocs; ++rank) {
    std::vector<std::string> args = {
        self,
        "worker",
        "--rank", std::to_string(rank),
        "--procs", std::to_string(o.run.nprocs),
        "--coord-port", std::to_string(port),
        "--n", std::to_string(o.prob.n),
        "--tile", std::to_string(o.prob.tile_size),
        "--seed", std::to_string(o.prob.seed),
        "--workers", std::to_string(o.run.workers),
        "--policy", gsx::dist::dist_policy_name(o.run.policy),
    };
    if (o.run.ooc_bytes > 0) {
      const std::string dir = o.spill_base + "/r" + std::to_string(rank);
      ::mkdir(dir.c_str(), 0755);
      args.insert(args.end(), {"--ooc-bytes", std::to_string(o.run.ooc_bytes),
                               "--spill-dir", dir});
    }
    if (o.verify) args.push_back("--verify");
    if (!o.flight_dir.empty())
      args.insert(args.end(), {"--flight-dir", o.flight_dir});
    // Per-rank scrape ports: pass 0 so each worker binds its own ephemeral
    // port (a fixed port would collide across ranks on one host).
    if (o.metrics_port >= 0)
      args.insert(args.end(), {"--metrics-port", "0"});

    const pid_t pid = ::fork();
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(self, argv.data());
      std::perror("gsx_dist: execv");
      ::_exit(127);
    }
    if (pid < 0) {
      std::perror("gsx_dist: fork");
      for (const pid_t p : pids) ::kill(p, SIGKILL);
      return 1;
    }
    pids.push_back(pid);
  }

  // A dead rank would hang the survivors at the next barrier; on the first
  // failed exit, take the rest down so the launcher fails fast.
  bool workers_ok = true;
  std::size_t remaining = pids.size();
  while (remaining > 0) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) break;
    --remaining;
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!ok && workers_ok) {
      workers_ok = false;
      std::fprintf(stderr, "gsx_dist: worker pid %d failed, stopping the run\n",
                   static_cast<int>(pid));
      for (const pid_t p : pids)
        if (p != pid) ::kill(p, SIGKILL);
    }
  }

  const gsx::dist::RankStats total = coord.total_stats();
  const bool coord_ok = coord.all_ok();
  if (!coord_ok)
    for (const std::string& f : coord.failures())
      std::fprintf(stderr, "gsx_dist: %s\n", f.c_str());
  coord.stop();
  dump_flight(o.flight_dir, "coord");

  std::printf("gsx_dist: wire %llu tiles / %llu bytes, spill out %llu in %llu\n",
              static_cast<unsigned long long>(total.tiles_sent),
              static_cast<unsigned long long>(total.bytes_sent),
              static_cast<unsigned long long>(total.spill_out),
              static_cast<unsigned long long>(total.spill_in));

  bool ok = workers_ok && coord_ok;
  if (o.expect_spill && total.spill_out == 0) {
    std::fprintf(stderr, "gsx_dist: expected out-of-core spills, saw none\n");
    ok = false;
  }
  if (!o.json_path.empty()) {
    std::ofstream out(o.json_path, std::ios::trunc);
    out << "{\"schema\":\"gsx-dist-v1\",\"n\":" << o.prob.n
        << ",\"tile\":" << o.prob.tile_size << ",\"procs\":" << o.run.nprocs
        << ",\"policy\":\"" << gsx::dist::dist_policy_name(o.run.policy)
        << "\",\"ok\":" << (ok ? "true" : "false")
        << ",\"tiles_sent\":" << total.tiles_sent
        << ",\"bytes_sent\":" << total.bytes_sent
        << ",\"spill_out\":" << total.spill_out
        << ",\"spill_in\":" << total.spill_in << "}\n";
  }
  std::printf("gsx_dist: %s\n", ok ? "all ranks OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") {
    usage(argv[0]);
    return 0;
  }

  Options o;
  o.run.nprocs = 4;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::function<std::string()> value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (parse_common(o, arg, value)) continue;
    if (arg == "--rank") {
      o.run.rank = static_cast<int>(std::stoul(value()));
    } else if (arg == "--coord-port") {
      o.run.coord_port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--spill-dir") {
      o.spill_base = value();
      o.run.spill_dir = o.spill_base;  // workers use it directly
    } else if (arg == "--expect-spill") {
      o.expect_spill = true;
    } else if (arg == "--json") {
      o.json_path = value();
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  ::signal(SIGPIPE, SIG_IGN);  // peer teardown must not kill the process
  if (cmd == "worker") return worker_main(std::move(o));
  if (cmd == "run") return run_main(std::move(o), argv[0]);
  std::fprintf(stderr, "%s: unknown command %s\n", argv[0], cmd.c_str());
  usage(argv[0]);
  return 2;
}
