// Structured, leveled logging for the numerical-health observability layer.
//
// Like the metrics registry, logging is opt-in and its disabled cost in a
// hot path is a single predictable branch: log_enabled() is one relaxed
// atomic load against the lowest level any sink currently wants. The level
// defaults to Off, so a library user who never touches the logger pays
// nothing and sees nothing.
//
// A passing message is rendered to two sinks: a human-readable text stream
// (default stderr) and, when opened, a JSONL file (one JSON object per
// line, machine-parseable by the same tooling that reads the profile
// reports). Messages carry structured fields — typed key/value pairs that
// render as `key=value` in text and as JSON members in the JSONL sink.
//
// Per-module levels let one subsystem (say "cholesky") log at Debug while
// the rest stays at Warn. Rate limiting caps the per-(module, level)
// message rate so a pathological MLE run cannot flood a sink; suppressed
// messages are counted, never silently lost.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace gsx::obs {

enum class LogLevel : unsigned char {
  Trace = 0,
  Debug = 1,
  Info = 2,
  Warn = 3,
  Error = 4,
  Off = 5,
};

[[nodiscard]] constexpr std::string_view log_level_name(LogLevel l) noexcept {
  switch (l) {
    case LogLevel::Trace: return "trace";
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

/// Parse "trace"/"debug"/"info"/"warn"/"error"/"off" (case-sensitive).
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view name) noexcept;

/// Fast admission check: one relaxed atomic load and a compare. True when
/// *some* module would accept a message at `level` (the per-module decision
/// happens on the slow path inside log()).
[[nodiscard]] bool log_enabled(LogLevel level) noexcept;

/// Global threshold: messages below `level` are dropped (default Off).
void set_log_level(LogLevel level) noexcept;

/// Override the threshold for one module name (exact match against the
/// `module` argument of log()). Overrides may raise or lower the global
/// threshold for that module.
void set_module_log_level(const std::string& module, LogLevel level);

/// One structured field. Build with the lf() helpers; numbers render
/// unquoted in the JSONL sink.
struct LogField {
  std::string key;
  std::string value;       ///< pre-rendered
  bool numeric = false;    ///< JSONL: emit unquoted
};

[[nodiscard]] LogField lf(std::string key, std::string value);
[[nodiscard]] LogField lf(std::string key, const char* value);
[[nodiscard]] LogField lf(std::string key, double value);
[[nodiscard]] LogField lf(std::string key, std::uint64_t value);
[[nodiscard]] LogField lf(std::string key, std::int64_t value);
[[nodiscard]] LogField lf(std::string key, int value);
[[nodiscard]] LogField lf(std::string key, bool value);

/// Emit one message. Callers building expensive fields should guard with
/// log_enabled(level) first; log() re-checks admission (module override,
/// rate limit) before touching a sink. Thread-safe.
void log(LogLevel level, const char* module, std::string_view message,
         std::initializer_list<LogField> fields = {});

// Convenience wrappers.
inline void log_debug(const char* module, std::string_view msg,
                      std::initializer_list<LogField> fields = {}) {
  if (log_enabled(LogLevel::Debug)) log(LogLevel::Debug, module, msg, fields);
}
inline void log_info(const char* module, std::string_view msg,
                     std::initializer_list<LogField> fields = {}) {
  if (log_enabled(LogLevel::Info)) log(LogLevel::Info, module, msg, fields);
}
inline void log_warn(const char* module, std::string_view msg,
                     std::initializer_list<LogField> fields = {}) {
  if (log_enabled(LogLevel::Warn)) log(LogLevel::Warn, module, msg, fields);
}
inline void log_error(const char* module, std::string_view msg,
                      std::initializer_list<LogField> fields = {}) {
  if (log_enabled(LogLevel::Error)) log(LogLevel::Error, module, msg, fields);
}

/// Text sink (default stderr). nullptr silences the text sink; the stream
/// is borrowed, never closed.
void set_log_text_stream(std::FILE* stream) noexcept;

/// Open (truncate) a JSONL sink at `path`. Throws InvalidArgument when the
/// file cannot be created. Closes any previously open JSONL sink.
void open_log_json(const std::string& path);
void close_log_json();

/// Cap messages per (module, level) key per second; 0 = unlimited
/// (default 0). Suppressed messages increment log_suppressed_count().
void set_log_rate_limit(std::uint64_t max_per_second) noexcept;
[[nodiscard]] std::uint64_t log_suppressed_count() noexcept;

/// Restore defaults: level Off, no module overrides, text sink stderr,
/// JSONL closed, rate limit off, suppressed count zero. For tests and CLI
/// teardown.
void reset_log();

}  // namespace gsx::obs
