#include "obs/log.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gsx::obs {

namespace {

/// The global level — the fast-path gate.
std::atomic<unsigned char> g_level{static_cast<unsigned char>(LogLevel::Off)};

/// Serializes the sinks' writes and guards g_json.
std::mutex g_mutex;
std::FILE* g_json = nullptr;

std::string render_double(double v) {
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN literals; stringify so the JSONL sink stays
    // parseable (the text sink prints the same token).
    return v > 0 ? "\"inf\"" : (v < 0 ? "\"-inf\"" : "\"nan\"");
  }
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

std::optional<LogLevel> parse_log_level(std::string_view name) noexcept {
  for (LogLevel l : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                     LogLevel::Error, LogLevel::Off})
    if (name == log_level_name(l)) return l;
  return std::nullopt;
}

bool log_enabled(LogLevel level) noexcept {
  return static_cast<unsigned char>(level) >= g_level.load(std::memory_order_relaxed);
}

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<unsigned char>(level), std::memory_order_relaxed);
}

LogField lf(std::string key, std::string value) {
  return {std::move(key), std::move(value), false};
}
LogField lf(std::string key, const char* value) {
  return {std::move(key), std::string(value), false};
}
LogField lf(std::string key, double value) {
  return {std::move(key), render_double(value), true};
}
LogField lf(std::string key, std::uint64_t value) {
  return {std::move(key), std::to_string(value), true};
}
LogField lf(std::string key, std::int64_t value) {
  return {std::move(key), std::to_string(value), true};
}
LogField lf(std::string key, bool value) {
  return {std::move(key), value ? "true" : "false", true};
}

void log(LogLevel level, const char* module, std::string_view message,
         std::initializer_list<LogField> fields) {
  if (level == LogLevel::Off || !log_enabled(level)) return;
  const double ts = now_seconds();

  std::string text;
  text.reserve(64 + message.size());
  char head[64];
  std::snprintf(head, sizeof(head), "[%12.6f] %-5s %s: ", ts,
                std::string(log_level_name(level)).c_str(), module);
  text += head;
  text += message;
  for (const LogField& f : fields) {
    text += ' ';
    text += f.key;
    text += '=';
    text += f.value;
  }
  text += '\n';

  std::lock_guard lk(g_mutex);
  std::fputs(text.c_str(), stderr);

  if (g_json != nullptr) {
    std::string line;
    line.reserve(96 + message.size());
    line += "{\"ts\": ";
    line += render_double(ts);
    line += ", \"level\": \"";
    line += log_level_name(level);
    line += "\", \"module\": \"";
    line += json_escape(module);
    line += "\", \"msg\": \"";
    line += json_escape(message);
    line += '"';
    for (const LogField& f : fields) {
      line += ", \"";
      line += json_escape(f.key);
      line += "\": ";
      if (f.numeric) {
        line += f.value;
      } else {
        line += '"';
        line += json_escape(f.value);
        line += '"';
      }
    }
    line += "}\n";
    std::fputs(line.c_str(), g_json);
  }
}

void open_log_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  GSX_REQUIRE(f != nullptr, "open_log_json: cannot open " + path);
  std::lock_guard lk(g_mutex);
  if (g_json != nullptr) std::fclose(g_json);
  g_json = f;
}

void close_log_json() {
  std::lock_guard lk(g_mutex);
  if (g_json != nullptr) {
    std::fclose(g_json);
    g_json = nullptr;
  }
}

}  // namespace gsx::obs
