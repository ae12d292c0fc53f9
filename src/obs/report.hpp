// Machine-readable profile reports.
//
// write_profile_json emits everything one run recorded — per-iteration
// per-precision flop counts, conversion counts, tile mixes and TLR rank
// histograms (the paper's Fig. 8 / Fig. 9 tables), per-phase totals, the
// execution analytics over this process's flight history, and every
// registry metric. write_flops_csv flattens the flop mix into a
// spreadsheet-friendly long format. The Chrome trace of the same run is
// obs::write_gantt_trace over build_history(FlightRecorder's snapshot)
// (obs/analytics.hpp).
#pragma once

#include <string>

namespace gsx::obs {

/// Write the full profile report as JSON to `path`. Throws InvalidArgument
/// if the file cannot be written.
void write_profile_json(const std::string& path);

/// Write the per-iteration (kernel, precision) flop mix as CSV:
///   iteration,label,kernel,precision,calls,flops
/// followed by conversion rows:
///   iteration,label,convert,FROM->TO,count,elements
void write_flops_csv(const std::string& path);

/// Reset every observability store (metrics, flop ledger, phase totals,
/// iteration records) — call before a profiled run.
void reset_all();

}  // namespace gsx::obs
