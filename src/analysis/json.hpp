// Minimal JSON support for structured experiment output: a small builder
// (objects, arrays, scalars, correct string escaping and non-finite number
// handling) plus a strict recursive-descent parser and read accessors —
// enough to export results to downstream analysis and to diff committed
// bench trajectories (tools/bench_export --compare) without an external
// dependency.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpupower::analysis {

class JsonValue {
 public:
  /// Scalars.
  static JsonValue number(double v);
  static JsonValue integer(long long v);
  static JsonValue boolean(bool v);
  static JsonValue string(std::string_view v);
  static JsonValue null();

  /// Containers (built incrementally).
  static JsonValue object();
  static JsonValue array();

  /// Object insertion; returns *this for chaining.  Aborts on non-objects.
  JsonValue& set(std::string_view key, JsonValue value);
  /// Array append.  Aborts on non-arrays.
  JsonValue& push(JsonValue value);

  /// Serialises compactly (no whitespace) or with 2-space indentation.
  [[nodiscard]] std::string dump(bool pretty = false) const;

  // --- read accessors (for parsed documents) ------------------------------
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  /// Numbers and integers both count as numeric.
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber || kind_ == Kind::kInteger;
  }

  /// Object member lookup (the first member of that name); nullptr when
  /// absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  [[nodiscard]] JsonValue* find(std::string_view key) noexcept;
  /// Object member keys in insertion order (empty for non-objects).
  [[nodiscard]] std::vector<std::string> keys() const;
  /// Array / object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Array element access; aborts when out of range or not an array.
  [[nodiscard]] const JsonValue& at(std::size_t index) const;
  /// Numeric value (integers widen); `fallback` for non-numeric kinds.
  [[nodiscard]] double as_number(double fallback = 0.0) const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;
  }
  [[nodiscard]] bool as_boolean(bool fallback = false) const noexcept {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }

 private:
  enum class Kind { kNull, kBool, kNumber, kInteger, kString, kArray, kObject };
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  long long integer_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  void write(std::string& out, bool pretty, int depth) const;
};

/// Escapes a string for inclusion in JSON (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view text);

struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;          ///< empty when ok
  std::size_t error_pos = 0;  ///< byte offset of the error in the input
};

/// Strict JSON parser (RFC 8259 subset: no comments, no trailing commas;
/// \uXXXX escapes decode BMP code points to UTF-8).  Never throws.
[[nodiscard]] JsonParseResult json_parse(std::string_view text);

}  // namespace gpupower::analysis
