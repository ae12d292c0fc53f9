// Machine-readable profile reports.
//
// write_profile_json emits everything one run recorded — per-iteration
// per-precision flop counts, conversion counts, tile mixes and TLR rank
// histograms (the paper's Fig. 8 / Fig. 9 tables), pipeline phase timings,
// and every registry metric. write_profile_trace_json renders the span
// store as one Chrome trace (load it in chrome://tracing or Perfetto).
// write_flops_csv flattens the flop mix into a spreadsheet-friendly long
// format.
#pragma once

#include <string>

namespace gsx::obs {

/// Write the full profile report as JSON to `path`. Throws InvalidArgument
/// if the file cannot be written.
void write_profile_json(const std::string& path);

/// Write every span in the trace store to `path` as one Chrome trace: phase
/// spans (assembly -> policy -> compress -> factorize -> solve -> krige) on a
/// named "pipeline" row, and every task a TaskGraph ran while obs was on on
/// its worker's row with its kernel metadata (precision, rank, flops), all
/// on one clock across MLE iterations. Throws InvalidArgument if the file
/// cannot be written.
void write_profile_trace_json(const std::string& path);

/// Write the per-iteration (kernel, precision) flop mix as CSV:
///   iteration,label,kernel,precision,calls,flops
/// followed by conversion rows:
///   iteration,label,convert,FROM->TO,count,elements
void write_flops_csv(const std::string& path);

/// Reset every observability store (metrics, flop ledger, trace spans,
/// iteration records) — call before a profiled run.
void reset_all();

}  // namespace gsx::obs
