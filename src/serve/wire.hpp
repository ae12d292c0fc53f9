// Minimal JSON value type for the newline-delimited wire protocol.
//
// Self-contained (no third-party deps, per the serving layer's POSIX-only
// constraint): parses objects/arrays/strings/numbers/bools/null from one
// request line and serializes responses. Numbers are doubles (the protocol
// carries coordinates, means and variances); strings support the standard
// escapes including \uXXXX with surrogate pairs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace gsx::serve {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(int i) : v_(static_cast<double>(i)) {}
  JsonValue(std::size_t u) : v_(static_cast<double>(u)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw InvalidArgument on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Parse exactly one JSON value (trailing garbage rejected). Throws
  /// InvalidArgument with a position on malformed input.
  static JsonValue parse(std::string_view text);

  /// Compact single-line serialization (newline-free: wire framing relies
  /// on one response per line).
  [[nodiscard]] std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// {"ok":false,"error":why} — the uniform wire error shape.
std::string wire_error(const std::string& why);

/// Mint a process-unique request id (monotone from 1). The wire layer stamps
/// one on every predict before it enters the engine; the same id threads
/// through batching, the solver's flight-recorder events, spans and the
/// response, so one grep correlates a request across every artifact.
[[nodiscard]] std::uint64_t mint_request_id() noexcept;

/// Wire/trace spelling of a request id: "r-<n>".
[[nodiscard]] std::string request_id_string(std::uint64_t id);

/// Parse "r-<n>" (or a bare integer string) back to the numeric id;
/// 0 when the spelling is unrecognized.
[[nodiscard]] std::uint64_t parse_request_id(const std::string& s) noexcept;

/// Mint a fleet-unique distributed trace id. Unlike request ids (monotone,
/// per-process), a trace id must not collide across router restarts or
/// between processes, so the pid and a startup-time nonce are mixed in.
[[nodiscard]] std::uint64_t mint_trace_id() noexcept;

/// Wire spelling of a trace id: "t-<16 hex digits>". This is the
/// "trace_id" field on forwarded predicts and their responses.
[[nodiscard]] std::string trace_id_string(std::uint64_t id);

/// Wire spelling of a span id: "s-<16 hex digits>" (the "parent_span_id"
/// field on a forwarded predict). Span ids are minted by obs::mint_span_id.
[[nodiscard]] std::string span_id_string(std::uint64_t id);

/// Parse "t-<hex>" / "s-<hex>" (or a bare hex string) back to the numeric
/// id; 0 when unrecognized.
[[nodiscard]] std::uint64_t parse_trace_id(const std::string& s) noexcept;

}  // namespace gsx::serve
