// bench_compare: regression gate over two gsx-bench-v1 JSON files.
//
//   bench_compare baseline.json candidate.json [--threshold PCT]
//
// Records are matched by name. A record regresses when its wall time
// (`seconds`) grows by more than the threshold (default 10%), or its
// throughput (`gflops`, when nonzero in the baseline) drops by more than the
// threshold — this covers both the plain timing rows and the latency rows
// (p50/p999 records carry their quantile in `seconds`). A record marked
// `"unit": "fraction"` holds a near-zero ratio of either sign in `seconds`
// (an overhead), where a relative change means nothing; it regresses when
// it grows by more than 0.02 absolute, the 2% telemetry budget. Exit
// status: 0 clean, 1 regressions found, 2 usage/parse errors. Names present
// in only one file are reported but never fail the gate (benchmarks grow
// columns over time).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace {

/// Absolute growth beyond which a fraction record regresses.
constexpr double kFractionTolerance = 0.02;

struct Record {
  double seconds = 0.0;
  double gflops = 0.0;
  bool fraction = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] BASELINE.json CANDIDATE.json\n"
               "\n"
               "Compare two gsx-bench-v1 files and fail on regressions.\n"
               "  --threshold PCT  regression tolerance in percent (default 10)\n",
               argv0);
}

bool load_records(const char* argv0, const std::string& path,
                  std::map<std::string, Record>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read %s\n", argv0, path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    const gsx::serve::JsonValue root = gsx::serve::JsonValue::parse(buf.str());
    const gsx::serve::JsonValue* schema = root.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != "gsx-bench-v1") {
      std::fprintf(stderr, "%s: %s is not a gsx-bench-v1 file\n", argv0,
                   path.c_str());
      return false;
    }
    const gsx::serve::JsonValue* records = root.find("records");
    if (records == nullptr || !records->is_array()) {
      std::fprintf(stderr, "%s: %s has no records array\n", argv0, path.c_str());
      return false;
    }
    for (const gsx::serve::JsonValue& r : records->as_array()) {
      const gsx::serve::JsonValue* name = r.find("name");
      const gsx::serve::JsonValue* seconds = r.find("seconds");
      if (name == nullptr || !name->is_string() || seconds == nullptr ||
          !seconds->is_number())
        continue;
      Record rec;
      rec.seconds = seconds->as_number();
      const gsx::serve::JsonValue* gflops = r.find("gflops");
      if (gflops != nullptr && gflops->is_number()) rec.gflops = gflops->as_number();
      const gsx::serve::JsonValue* unit = r.find("unit");
      rec.fraction = unit != nullptr && unit->is_string() && unit->as_string() == "fraction";
      out[name->as_string()] = rec;
    }
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path.c_str(), e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  double threshold_pct = 10.0;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --threshold needs a value\n", argv[0]);
        return 2;
      }
      threshold_pct = std::atof(argv[++i]);
      if (threshold_pct <= 0.0) {
        std::fprintf(stderr, "%s: --threshold must be positive\n", argv[0]);
        return 2;
      }
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
  if (paths.size() != 2) {
    usage(argv[0]);
    return 2;
  }

  std::map<std::string, Record> base;
  std::map<std::string, Record> cand;
  if (!load_records(argv[0], paths[0], base)) return 2;
  if (!load_records(argv[0], paths[1], cand)) return 2;

  const double tol = threshold_pct / 100.0;
  std::size_t compared = 0;
  std::size_t regressions = 0;
  for (const auto& [name, b] : base) {
    const auto it = cand.find(name);
    if (it == cand.end()) {
      std::printf("MISSING  %-40s (in baseline only)\n", name.c_str());
      continue;
    }
    const Record& c = it->second;
    ++compared;
    bool bad = false;
    if (b.fraction || c.fraction) {
      if (c.seconds > b.seconds + kFractionTolerance) {
        std::printf("REGRESS  %-40s fraction %+.4f -> %+.4f (> +%.2f)\n", name.c_str(),
                    b.seconds, c.seconds, kFractionTolerance);
        ++regressions;
      }
      continue;
    }
    if (b.seconds > 0.0 && c.seconds > b.seconds * (1.0 + tol)) {
      std::printf("REGRESS  %-40s seconds %.6g -> %.6g (+%.1f%%)\n", name.c_str(),
                  b.seconds, c.seconds, 100.0 * (c.seconds / b.seconds - 1.0));
      bad = true;
    }
    if (b.gflops > 0.0 && c.gflops < b.gflops * (1.0 - tol)) {
      std::printf("REGRESS  %-40s gflops %.6g -> %.6g (-%.1f%%)\n", name.c_str(),
                  b.gflops, c.gflops, 100.0 * (1.0 - c.gflops / b.gflops));
      bad = true;
    }
    if (bad) ++regressions;
  }
  for (const auto& [name, c] : cand)
    if (base.find(name) == base.end())
      std::printf("NEW      %-40s (in candidate only)\n", name.c_str());

  std::printf("bench_compare: %zu compared, %zu regressions (threshold %.1f%%)\n",
              compared, regressions, threshold_pct);
  if (compared == 0) {
    std::fprintf(stderr, "%s: no records in common — wrong files?\n", argv[0]);
    return 2;
  }
  return regressions > 0 ? 1 : 0;
}
