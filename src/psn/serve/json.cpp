#include "psn/serve/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace psn::serve {

namespace {

const Json kNullJson{};

/// Strict recursive-descent parser over a string_view. Depth-limited so a
/// hostile request cannot overflow the stack of a resident server.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at byte " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default:
        return parse_number();
    }
  }

  Json parse_object(std::size_t depth) {
    expect('{');
    Json::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[std::move(key)] = parse_value(depth + 1);
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json(std::move(object));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(std::size_t depth) {
    expect('[');
    Json::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(array));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escape = peek();
      ++pos_;
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, parse_code_point()); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return value;
  }

  /// The code point of the \u escape whose hex digits start at pos_. A
  /// high surrogate followed by a \u low surrogate is one code point past
  /// U+FFFF; otherwise the second escape is left to decode on its own.
  unsigned parse_code_point() {
    const unsigned cp = parse_hex4();
    if (cp < 0xD800 || cp > 0xDBFF || text_.substr(pos_, 2) != "\\u")
      return cp;
    const std::size_t second = pos_;
    pos_ += 2;
    const unsigned low = parse_hex4();
    if (low >= 0xDC00 && low <= 0xDFFF)
      return 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    pos_ = second;
    return cp;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    // Lone or reversed surrogates become replacement characters.
    if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
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

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no NaN/Inf; null is the conventional stand-in (matches
    // the model layer's NaN sentinels for "never happened").
    out += "null";
    return;
  }
  std::array<char, 32> buf;
  // Shortest representation that round-trips through from_chars exactly.
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  out.append(buf.data(), result.ptr);
}

void dump_value(const Json& value, std::string& out);

void dump_array(const Json::Array& array, std::string& out) {
  out.push_back('[');
  bool first = true;
  for (const Json& element : array) {
    if (!first) out.push_back(',');
    first = false;
    dump_value(element, out);
  }
  out.push_back(']');
}

void dump_object(const Json::Object& object, std::string& out) {
  out.push_back('{');
  bool first = true;
  for (const auto& [key, element] : object) {
    if (!first) out.push_back(',');
    first = false;
    dump_string(key, out);
    out.push_back(':');
    dump_value(element, out);
  }
  out.push_back('}');
}

void dump_value(const Json& value, std::string& out) {
  if (value.is_null()) out += "null";
  else if (value.is_bool()) out += value.as_bool() ? "true" : "false";
  else if (value.is_number()) dump_number(value.as_number(), out);
  else if (value.is_string()) dump_string(value.as_string(), out);
  else if (value.is_array()) dump_array(value.as_array(), out);
  else dump_object(value.as_object(), out);
}

}  // namespace

const Json& Json::at(const std::string& key) const {
  if (is_object()) {
    const Object& object = as_object();
    if (const auto it = object.find(key); it != object.end())
      return it->second;
  }
  return kNullJson;
}

Json Json::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

}  // namespace psn::serve
