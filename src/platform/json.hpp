// Minimal JSON string escaping, shared by every emitter that prints
// user-controlled text (lockdep class labels, metrics gauge names,
// perfetto thread names) into a JSON document.
//
// The trace/metrics emitters deliberately use no JSON library (bounded
// work on the collector thread), which made label strings a quoting
// hazard: a LockClassKey labeled `db["main"]` used to produce invalid
// JSONL. Everything that prints a string into JSON now routes through
// write_json_escaped (or append_json_escaped, for a line built in
// memory), which emits the surrounding quotes and escapes the two
// structural characters plus control bytes (\uXXXX for anything below
// 0x20). Non-ASCII bytes pass through untouched: JSON is UTF-8 and the
// escapes above are the only ones required by RFC 8259.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace resilock::platform {

// Appends `s` to `out` as a quoted, escaped JSON string.
inline void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

inline void write_json_escaped(std::FILE* f, std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  std::fwrite(out.data(), 1, out.size(), f);
}

}  // namespace resilock::platform
