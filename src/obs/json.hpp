// JSON string escaping (RFC 8259) for every document obs writes — profile,
// health, analytics and the JSONL log sink — and for the serving wire.
#pragma once

#include <string>
#include <string_view>

namespace gsx::obs {

/// Append `s` to `out` as the body of a JSON string (no quotes): '"' and
/// '\' are escaped, \b \f \n \r \t use their short forms and every other
/// control character below 0x20 is written \u00XX; all other bytes,
/// including UTF-8 sequences, pass through unchanged.
void append_json_escaped(std::string& out, std::string_view s);

/// `s` escaped as by append_json_escaped.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

}  // namespace gsx::obs
