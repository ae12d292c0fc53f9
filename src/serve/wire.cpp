#include "serve/wire.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace gsx::serve {

namespace {

[[noreturn]] void bad(std::size_t pos, const std::string& what) {
  throw InvalidArgument("JSON parse error at byte " + std::to_string(pos) + ": " +
                        what);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) bad(pos_, "trailing characters after value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) bad(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) bad(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        bad(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        bad(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        bad(pos_, "invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue(std::move(obj));
      if (c != ',') bad(pos_ - 1, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue(std::move(arr));
      if (c != ',') bad(pos_ - 1, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) bad(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) bad(pos_ - 1, "control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) bad(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: bad(pos_ - 1, "invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) bad(pos_, "truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else bad(pos_ - 1, "invalid hex digit in \\u escape");
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate must be followed by \uDC00..\uDFFF.
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
        bad(pos_, "unpaired surrogate");
      pos_ += 2;
      const unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) bad(pos_, "invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      bad(pos_, "unpaired surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) bad(start, "invalid number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  obs::append_json_escaped(out, s);
  out.push_back('"');
}

void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; null is the conventional lossy encoding.
    out += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  (void)ec;
  out.append(buf, ptr);
}

void dump_value(const JsonValue& v, std::string& out);

void dump_array(const JsonValue::Array& a, std::string& out) {
  out.push_back('[');
  bool first = true;
  for (const JsonValue& v : a) {
    if (!first) out.push_back(',');
    first = false;
    dump_value(v, out);
  }
  out.push_back(']');
}

void dump_object(const JsonValue::Object& o, std::string& out) {
  out.push_back('{');
  bool first = true;
  for (const auto& [key, value] : o) {
    if (!first) out.push_back(',');
    first = false;
    dump_string(key, out);
    out.push_back(':');
    dump_value(value, out);
  }
  out.push_back('}');
}

void dump_value(const JsonValue& v, std::string& out) {
  if (v.is_null()) out += "null";
  else if (v.is_bool()) out += v.as_bool() ? "true" : "false";
  else if (v.is_number()) dump_number(v.as_number(), out);
  else if (v.is_string()) dump_string(v.as_string(), out);
  else if (v.is_array()) dump_array(v.as_array(), out);
  else dump_object(v.as_object(), out);
}

}  // namespace

bool JsonValue::as_bool() const {
  GSX_REQUIRE(is_bool(), "JsonValue: not a bool");
  return std::get<bool>(v_);
}

double JsonValue::as_number() const {
  GSX_REQUIRE(is_number(), "JsonValue: not a number");
  return std::get<double>(v_);
}

const std::string& JsonValue::as_string() const {
  GSX_REQUIRE(is_string(), "JsonValue: not a string");
  return std::get<std::string>(v_);
}

const JsonValue::Array& JsonValue::as_array() const {
  GSX_REQUIRE(is_array(), "JsonValue: not an array");
  return std::get<Array>(v_);
}

const JsonValue::Object& JsonValue::as_object() const {
  GSX_REQUIRE(is_object(), "JsonValue: not an object");
  return std::get<Object>(v_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& obj = std::get<Object>(v_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::string wire_error(const std::string& why) {
  JsonValue::Object o;
  o["ok"] = JsonValue(false);
  o["error"] = JsonValue(why);
  return JsonValue(std::move(o)).dump();
}

std::uint64_t mint_request_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string request_id_string(std::uint64_t id) {
  return "r-" + std::to_string(id);
}

std::uint64_t parse_request_id(const std::string& s) noexcept {
  std::string_view sv(s);
  if (sv.rfind("r-", 0) == 0) sv.remove_prefix(2);
  if (sv.empty()) return 0;
  std::uint64_t id = 0;
  const auto [ptr, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), id);
  if (ec != std::errc{} || ptr != sv.data() + sv.size()) return 0;
  return id;
}

std::uint64_t mint_trace_id() noexcept {
  // splitmix64 over (counter, pid, a per-process nonce from the address of a
  // static — ASLR makes it differ across restarts). Collisions across a
  // fleet would silently merge two requests' traces, so uniqueness beats
  // prettiness here.
  static std::atomic<std::uint64_t> counter{1};
  static const std::uint64_t nonce =
      reinterpret_cast<std::uintptr_t>(&counter) ^
      (static_cast<std::uint64_t>(::getpid()) << 32);
  std::uint64_t h = nonce + counter.fetch_add(1, std::memory_order_relaxed) *
                                0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h != 0 ? h : 1;  // 0 means "untraced" everywhere
}

std::string trace_id_string(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "t-%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::string span_id_string(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "s-%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::uint64_t parse_trace_id(const std::string& s) noexcept {
  std::string_view sv(s);
  if (sv.rfind("t-", 0) == 0 || sv.rfind("s-", 0) == 0) sv.remove_prefix(2);
  if (sv.empty() || sv.size() > 16) return 0;
  std::uint64_t id = 0;
  const auto [ptr, ec] =
      std::from_chars(sv.data(), sv.data() + sv.size(), id, 16);
  if (ec != std::errc{} || ptr != sv.data() + sv.size()) return 0;
  return id;
}

}  // namespace gsx::serve
