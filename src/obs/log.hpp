// Structured, leveled logging for the numerical-health observability layer.
//
// Like the metrics registry, logging is opt-in and its disabled cost in a
// hot path is a single predictable branch: log_enabled() is one relaxed
// atomic load of the global level. The level defaults to Off, so a library
// user who never touches the logger pays nothing and sees nothing.
//
// A passing message is rendered to two sinks: human-readable text on
// stderr and, when opened, a JSONL file (one JSON object per line,
// machine-parseable by the same tooling that reads the profile reports).
// Messages carry structured fields — typed key/value pairs that render as
// `key=value` in text and as JSON members in the JSONL sink.
#pragma once

#include <cstdint>
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
/// a message at `level` passes the global threshold.
[[nodiscard]] bool log_enabled(LogLevel level) noexcept;

/// Global threshold: messages below `level` are dropped (default Off).
void set_log_level(LogLevel level) noexcept;

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
[[nodiscard]] LogField lf(std::string key, bool value);

/// Emit one message. Callers building expensive fields should guard with
/// log_enabled(level) first; log() re-checks it before touching a sink.
/// Thread-safe.
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

/// Open (truncate) a JSONL sink at `path`. Throws InvalidArgument when the
/// file cannot be created. Closes any previously open JSONL sink.
void open_log_json(const std::string& path);
void close_log_json();

}  // namespace gsx::obs
