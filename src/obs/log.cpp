#include "obs/log.hpp"

#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gsx::obs {

namespace {

/// Lowest level any module currently accepts — the fast-path gate. Kept in
/// sync with the global level and the module overrides under g_mutex.
std::atomic<unsigned char> g_gate{static_cast<unsigned char>(LogLevel::Off)};

std::mutex g_mutex;
LogLevel g_global = LogLevel::Off;
std::map<std::string, LogLevel> g_module_levels;
std::FILE* g_text = stderr;
std::FILE* g_json = nullptr;
std::uint64_t g_rate_limit = 0;  // messages per key per second; 0 = off
std::atomic<std::uint64_t> g_suppressed{0};

/// Rate-limiter state per (module, level) key.
struct RateWindow {
  std::int64_t window = -1;  ///< whole second since the obs epoch
  std::uint64_t count = 0;
};
std::map<std::string, RateWindow> g_windows;

void refresh_gate_locked() {
  LogLevel gate = g_global;
  for (const auto& [_, lvl] : g_module_levels)
    if (lvl < gate) gate = lvl;
  g_gate.store(static_cast<unsigned char>(gate), std::memory_order_relaxed);
}

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
  return static_cast<unsigned char>(level) >= g_gate.load(std::memory_order_relaxed);
}

void set_log_level(LogLevel level) noexcept {
  std::lock_guard lk(g_mutex);
  g_global = level;
  refresh_gate_locked();
}

void set_module_log_level(const std::string& module, LogLevel level) {
  std::lock_guard lk(g_mutex);
  g_module_levels[module] = level;
  refresh_gate_locked();
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
LogField lf(std::string key, int value) {
  return {std::move(key), std::to_string(value), true};
}
LogField lf(std::string key, bool value) {
  return {std::move(key), value ? "true" : "false", true};
}

void log(LogLevel level, const char* module, std::string_view message,
         std::initializer_list<LogField> fields) {
  if (level == LogLevel::Off || !log_enabled(level)) return;
  const double ts = now_seconds();

  std::lock_guard lk(g_mutex);
  // Per-module admission: an override replaces the global threshold.
  const auto it = g_module_levels.find(module);
  const LogLevel threshold = (it != g_module_levels.end()) ? it->second : g_global;
  if (level < threshold) return;

  if (g_rate_limit > 0) {
    const std::string key = std::string(module) + '/' +
                            std::string(log_level_name(level));
    RateWindow& w = g_windows[key];
    const auto second = static_cast<std::int64_t>(ts);
    if (w.window != second) {
      w.window = second;
      w.count = 0;
    }
    if (++w.count > g_rate_limit) {
      g_suppressed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  if (g_text != nullptr) {
    std::string line;
    line.reserve(64 + message.size());
    char head[64];
    std::snprintf(head, sizeof(head), "[%12.6f] %-5s %s: ", ts,
                  std::string(log_level_name(level)).c_str(), module);
    line += head;
    line += message;
    for (const LogField& f : fields) {
      line += ' ';
      line += f.key;
      line += '=';
      line += f.value;
    }
    line += '\n';
    std::fputs(line.c_str(), g_text);
  }

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

void set_log_text_stream(std::FILE* stream) noexcept {
  std::lock_guard lk(g_mutex);
  g_text = stream;
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

void set_log_rate_limit(std::uint64_t max_per_second) noexcept {
  std::lock_guard lk(g_mutex);
  g_rate_limit = max_per_second;
}

std::uint64_t log_suppressed_count() noexcept {
  return g_suppressed.load(std::memory_order_relaxed);
}

void reset_log() {
  std::lock_guard lk(g_mutex);
  g_global = LogLevel::Off;
  g_module_levels.clear();
  g_text = stderr;
  if (g_json != nullptr) {
    std::fclose(g_json);
    g_json = nullptr;
  }
  g_rate_limit = 0;
  g_windows.clear();
  g_suppressed.store(0, std::memory_order_relaxed);
  refresh_gate_locked();
}

}  // namespace gsx::obs
