#include "obs/json.hpp"

namespace gsx::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.reserve(out.size() + s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xF];
        } else {
          out += c;
        }
      }
    }
  }
}

}  // namespace gsx::obs
