#include "analysis/json.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>
#include <utility>

namespace gpupower::analysis {

JsonValue JsonValue::number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::integer(long long v) {
  JsonValue j;
  j.kind_ = Kind::kInteger;
  j.integer_ = v;
  return j;
}

JsonValue JsonValue::boolean(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::string(std::string_view v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_.assign(v);
  return j;
}

JsonValue JsonValue::null() { return JsonValue{}; }

JsonValue JsonValue::object() {
  JsonValue j;
  j.kind_ = Kind::kObject;
  return j;
}

JsonValue JsonValue::array() {
  JsonValue j;
  j.kind_ = Kind::kArray;
  return j;
}

JsonValue& JsonValue::set(std::string_view key, JsonValue value) {
  assert(kind_ == Kind::kObject);
  members_.emplace_back(std::string(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
  assert(kind_ == Kind::kArray);
  items_.push_back(std::move(value));
  return *this;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonValue::write(std::string& out, bool pretty, int depth) const {
  const std::string indent = pretty ? std::string(2 * (depth + 1), ' ') : "";
  const std::string closing = pretty ? std::string(2 * depth, ' ') : "";
  const char* nl = pretty ? "\n" : "";
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kInteger: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld", integer_);
      out += buf;
      return;
    }
    case Kind::kNumber: {
      if (!std::isfinite(number_)) {
        out += "null";  // JSON has no Inf/NaN
        return;
      }
      // Shortest decimal that round-trips the exact double: spec documents
      // (core/spec.hpp) rely on dump -> parse preserving every scalar bit
      // for canonical-key equality, and short values ("2.5") stay short.
      char buf[64];
      const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, number_);
      out.append(buf, ec == std::errc{} ? ptr : buf);
      return;
    }
    case Kind::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      // An all-number array (a trace column) stays on one line: one
      // element per line would multiply a long trace's line count.
      const bool one_line =
          pretty && std::all_of(items_.begin(), items_.end(),
                                [](const JsonValue& item) {
                                  return item.kind_ == Kind::kInteger ||
                                         item.kind_ == Kind::kNumber;
                                });
      out += '[';
      if (one_line) {
        for (std::size_t i = 0; i < items_.size(); ++i) {
          if (i != 0) out += ", ";
          items_[i].write(out, pretty, depth + 1);
        }
        out += ']';
        return;
      }
      out += nl;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += indent;
        items_[i].write(out, pretty, depth + 1);
        if (i + 1 < items_.size()) out += ',';
        out += nl;
      }
      out += closing;
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += indent;
        out += '"';
        out += json_escape(members_[i].first);
        out += pretty ? "\": " : "\":";
        members_[i].second.write(out, pretty, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += nl;
      }
      out += closing;
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(bool pretty) const {
  std::string out;
  write(out, pretty, 0);
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::vector<std::string> JsonValue::keys() const {
  std::vector<std::string> out;
  if (kind_ == Kind::kObject) {
    out.reserve(members_.size());
    for (const auto& [name, value] : members_) out.push_back(name);
  }
  return out;
}

std::size_t JsonValue::size() const noexcept {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  return 0;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  assert(kind_ == Kind::kArray && index < items_.size());
  return items_[index];
}

double JsonValue::as_number(double fallback) const noexcept {
  if (kind_ == Kind::kNumber) return number_;
  if (kind_ == Kind::kInteger) return static_cast<double>(integer_);
  return fallback;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_ws();
    if (!parse_value(result.value)) {
      result.error = error_;
      result.error_pos = pos_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = "trailing characters after JSON value";
      result.error_pos = pos_;
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool fail(const char* message) {
    error_ = message;
    return false;
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_literal(std::string_view word, JsonValue value,
                     JsonValue& out) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    out = std::move(value);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape digit");
            }
          }
          // BMP code point to UTF-8 (surrogate pairs unsupported — the
          // emitter never produces them for our ASCII-ish documents).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  /// RFC 8259 number grammar: -? (0 | [1-9][0-9]*) frac? exp?.  strtod is
  /// laxer (accepts "+5", ".5", "5."), so the token is validated first.
  static bool rfc8259_number(const std::string& token) {
    std::size_t i = 0;
    const auto digit = [&](std::size_t p) {
      return p < token.size() && token[p] >= '0' && token[p] <= '9';
    };
    if (i < token.size() && token[i] == '-') ++i;
    if (!digit(i)) return false;
    if (token[i] == '0') {
      ++i;
    } else {
      while (digit(i)) ++i;
    }
    if (i < token.size() && token[i] == '.') {
      ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
      ++i;
      if (i < token.size() && (token[i] == '+' || token[i] == '-')) ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    return i == token.size();
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a number");
    const std::string token(text_.substr(start, pos_ - start));
    if (!rfc8259_number(token)) return fail("malformed number");
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number");
    // Integral values without fraction/exponent stay integers, matching
    // the emitter's two numeric kinds — unless they overflow long long, in
    // which case the double value is kept rather than silently saturating.
    if (token.find_first_of(".eE") == std::string::npos) {
      long long integral = 0;
      const auto [ptr, ec] = std::from_chars(
          token.data(), token.data() + token.size(), integral);
      if (ec == std::errc{} && ptr == token.data() + token.size()) {
        out = JsonValue::integer(integral);
        return true;
      }
    }
    out = JsonValue::number(value);
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (++depth_ > 128) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    bool ok = false;
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        JsonValue object = JsonValue::object();
        skip_ws();
        if (consume('}')) {
          out = std::move(object);
          ok = true;
          break;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!consume(':')) return fail("expected ':' after object key");
          JsonValue value;
          if (!parse_value(value)) return false;
          object.set(key, std::move(value));
          skip_ws();
          if (consume(',')) continue;
          if (consume('}')) break;
          return fail("expected ',' or '}' in object");
        }
        out = std::move(object);
        ok = true;
        break;
      }
      case '[': {
        ++pos_;
        JsonValue array = JsonValue::array();
        skip_ws();
        if (consume(']')) {
          out = std::move(array);
          ok = true;
          break;
        }
        for (;;) {
          JsonValue value;
          if (!parse_value(value)) return false;
          array.push(std::move(value));
          skip_ws();
          if (consume(',')) continue;
          if (consume(']')) break;
          return fail("expected ',' or ']' in array");
        }
        out = std::move(array);
        ok = true;
        break;
      }
      case '"': {
        std::string value;
        if (!parse_string(value)) return false;
        out = JsonValue::string(value);
        ok = true;
        break;
      }
      case 't':
        ok = parse_literal("true", JsonValue::boolean(true), out);
        break;
      case 'f':
        ok = parse_literal("false", JsonValue::boolean(false), out);
        break;
      case 'n':
        ok = parse_literal("null", JsonValue::null(), out);
        break;
      default:
        ok = parse_number(out);
        break;
    }
    --depth_;
    return ok;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult json_parse(std::string_view text) {
  return JsonParser(text).run();
}

}  // namespace gpupower::analysis
