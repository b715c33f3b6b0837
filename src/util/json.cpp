#include "voprof/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "voprof/util/numeric.hpp"

namespace voprof::util {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t offset) {
  throw JsonError("JSON parse error at byte " + std::to_string(offset) + ": " +
                  what);
}

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull:
      return "null";
    case Json::Type::kBool:
      return "bool";
    case Json::Type::kNumber:
      return "number";
    case Json::Type::kString:
      return "string";
    case Json::Type::kArray:
      return "array";
    case Json::Type::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, Json::Type got) {
  throw JsonError(std::string("JSON type mismatch: wanted ") + wanted +
                  ", value is " + type_name(got));
}

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 passes through verbatim
        }
    }
  }
  out += '"';
}

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return v;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'", pos_);
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_space();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == Json::kMaxDepth) {
          fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
                   " levels",
               pos_);
        }
        ++depth_;
        Json out = c == '{' ? object() : array();
        --depth_;
        return out;
      }
      case '"':
        return Json(string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal", pos_);
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal", pos_);
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal", pos_);
      default:
        return number();
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double out = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{} || end != last || first == last) {
      fail("malformed number", start);
    }
    return Json(out);
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail("raw control character in string", pos_ - 1);
        }
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape", pos_);
          unsigned cp = 0;
          const char* first = text_.data() + pos_;
          const auto [end, ec] = std::from_chars(first, first + 4, cp, 16);
          if (ec != std::errc{} || end != first + 4) {
            fail("malformed \\u escape", pos_);
          }
          pos_ += 4;
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences; the harness never emits
          // them, this is read-side tolerance only).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape", pos_ - 1);
      }
    }
  }

  Json array() {
    expect('[');
    Json out = Json::array();
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(value());
      skip_space();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'", pos_ - 1);
    }
  }

  Json object() {
    expect('{');
    Json out = Json::object();
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_space();
      std::string key = string();
      skip_space();
      expect(':');
      out.set(std::move(key), value());
      skip_space();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'", pos_ - 1);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw JsonError("JSON object has no key \"" + std::string(key) + '"');
  }
  return *v;
}

void Json::push_back(Json v) {
  if (type_ != Type::kArray) type_error("array", type_);
  arr_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&out, indent](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      // JSON has no literal for non-finite numbers; emit null so the
      // document stays parseable everywhere.
      out += std::isfinite(num_) ? format_double(num_) : "null";
      return;
    case Type::kString:
      write_escaped(out, str_);
      return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        arr_[i].write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        write_escaped(out, obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace voprof::util
