// Shared lexing helpers for the small stage-style DSLs in the DVFS
// subsystem (governor specs, timeline specs), plus the number printer every
// DSL serialiser uses (core's pattern DSL included).  Header-only; the
// public grammars live in the owning headers.
#pragma once

#include <cctype>
#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace gpupower::gpusim::dvfs::detail {

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }
  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos >= text.size();
  }
  [[nodiscard]] bool accept(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
};

inline std::string read_ident(Cursor& cursor) {
  cursor.skip_ws();
  std::string out;
  while (cursor.pos < cursor.text.size()) {
    const char c = cursor.text[cursor.pos];
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') break;
    out.push_back(c);
    ++cursor.pos;
  }
  return out;
}

/// Parses a number with an optional '%' suffix (percent divides by 100).
/// Bounded by the view's end (std::from_chars, like the pattern DSL) — a
/// string_view over a larger or non-NUL-terminated buffer never reads
/// past its logical end.
inline bool read_number(Cursor& cursor, double& value) {
  cursor.skip_ws();
  const char* begin = cursor.text.data() + cursor.pos;
  const char* end = cursor.text.data() + cursor.text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{}) return false;
  cursor.pos += static_cast<std::size_t>(ptr - begin);
  if (cursor.pos < cursor.text.size() && cursor.text[cursor.pos] == '%') {
    ++cursor.pos;
    value /= 100.0;
  }
  return true;
}

/// The one number printer of the DSLs (pattern, timeline, governor): the
/// shortest form that parses back to exactly `v` (std::to_chars, as
/// JsonValue::dump prints numbers), so "0.14" stays "0.14" and a DSL string
/// round-trips every bit.
inline std::string format_exact(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ec == std::errc{} ? ptr : buf);
}

}  // namespace gpupower::gpusim::dvfs::detail
