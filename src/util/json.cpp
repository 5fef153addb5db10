#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace clrearly::util {

namespace {

[[noreturn]] void type_error(const char* expected) {
  throw std::runtime_error(std::string("JsonValue: not a ") + expected);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) type_error("number");
  return std::get<double>(value_);
}

std::uint64_t JsonValue::as_uint64() const {
  const double number = as_number();
  constexpr double kTwoPow64 = 18446744073709551616.0;  // exact in a double
  // Written so NaN fails the range test too.
  if (!(number >= 0.0 && number < kTwoPow64) || std::trunc(number) != number) {
    throw std::runtime_error("JsonValue: not an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(number);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(value_);
}

const JsonArray& JsonValue::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<JsonArray>(value_);
}

const JsonObject& JsonValue::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<JsonObject>(value_);
}

JsonArray& JsonValue::as_array() {
  if (!is_array()) type_error("array");
  return std::get<JsonArray>(value_);
}

JsonObject& JsonValue::as_object() {
  if (!is_object()) type_error("object");
  return std::get<JsonObject>(value_);
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonObject& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::runtime_error("JsonValue: missing key '" + key + "'");
  }
  return it->second;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const JsonObject& obj = std::get<JsonObject>(value_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr ? member->as_number() : fallback;
}

// ---------------------------------------------------------------- writer

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void write_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    throw std::runtime_error("json_serialize: non-finite number");
  }
  // Integers print without exponent/decimals for readability.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d,
                                   std::chars_format::fixed, 0);
    (void)ec;
    out.append(buf, static_cast<std::size_t>(ptr - buf));
    return;
  }
  // std::to_chars, not snprintf("%.17g"): printf honors LC_NUMERIC and a
  // comma-decimal locale would emit "1,5" — invalid JSON.
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d,
                                 std::chars_format::general, 17);
  (void)ec;
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void write_value(std::string& out, const JsonValue& v, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    write_number(out, v.as_number());
  } else if (v.is_string()) {
    write_escaped(out, v.as_string());
  } else if (v.is_array()) {
    const JsonArray& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad_in;
      write_value(out, arr[i], indent + 1);
      if (i + 1 < arr.size()) out += ',';
      out += '\n';
    }
    out += pad + "]";
  } else {
    const JsonObject& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += "{\n";
    std::size_t i = 0;
    for (const auto& [key, member] : obj) {
      out += pad_in;
      write_escaped(out, key);
      out += ": ";
      write_value(out, member, indent + 1);
      if (++i < obj.size()) out += ',';
      out += '\n';
    }
    out += pad + "}";
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  write_value(out, value, 0);
  out += '\n';
  return out;
}

// ---------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json_parse: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays and objects around this value.
  JsonValue parse_value(std::size_t depth) {
    skip_whitespace();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
             " levels");
      }
      return c == '{' ? parse_object(depth + 1) : parse_array(depth + 1);
    }
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue(nullptr);
    }
    return parse_number();
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonObject obj;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj.emplace(std::move(key), parse_value(depth));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        break;
      }
      fail("expected ',' or '}'");
    }
    return JsonValue(std::move(obj));
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonArray arr;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(depth));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        break;
      }
      fail("expected ',' or ']'");
    }
    return JsonValue(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("bad escape");
      }
    }
    return out;
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    // BMP only (no surrogate pairing) — sufficient for model files.
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    // std::from_chars, not strtod: strtod honors LC_NUMERIC, so under a
    // comma-decimal locale it would stop at the '.' of a valid JSON
    // number and reject the document.
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) {
      pos_ = start;
      fail("bad number");
    }
    return JsonValue(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace clrearly::util
