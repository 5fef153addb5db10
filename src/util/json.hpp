// Minimal JSON value model, parser and writer — enough for the library's
// model-exchange format (io/serialize.hpp): null, bool, number, string,
// array, object. No external dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace clrearly::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// std::map keeps keys sorted — serialization is canonical, which makes
/// round-trip tests and diffs trivial.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::size_t u) : value_(static_cast<double>(u)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  /// The one checked JSON-to-integer conversion: a number that is a whole
  /// value in [0, 2^64). Negative, fractional, non-finite and too-large
  /// numbers throw std::runtime_error before any cast, so no input reaches
  /// an undefined double-to-integer conversion.
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object member access; throws std::runtime_error when `key` is absent
  /// or this is not an object.
  const JsonValue& at(const std::string& key) const;
  /// Member lookup returning nullptr when absent.
  const JsonValue* find(const std::string& key) const;
  /// Member access with a default for absent keys.
  double number_or(const std::string& key, double fallback) const;

  bool operator==(const JsonValue&) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// Serialize with 2-space indentation (stable, diff-friendly).
std::string json_serialize(const JsonValue& value);

/// Deepest array/object nesting json_parse accepts. The parser recurses once
/// per level, so an unbounded depth would let one hostile document (a POST
/// body of 200,000 '[') overflow the stack.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parse a complete JSON document; throws std::runtime_error with a
/// character offset on malformed input (including trailing garbage and
/// nesting deeper than kMaxJsonDepth).
JsonValue json_parse(const std::string& text);

}  // namespace clrearly::util
