#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/check.h"

namespace sophon {

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  SOPHON_CHECK(type_ == Type::kBool);
  return bool_;
}

double Json::as_number() const {
  SOPHON_CHECK(type_ == Type::kNumber);
  return number_;
}

bool Json::is_integer() const {
  return type_ == Type::kNumber && number_ == std::trunc(number_) &&
         std::fabs(number_) <= 9007199254740992.0;
}

std::int64_t Json::as_int() const {
  SOPHON_CHECK(type_ == Type::kNumber);
  const auto i = static_cast<std::int64_t>(number_);
  SOPHON_CHECK_MSG(static_cast<double>(i) == number_, "number is not integral");
  return i;
}

const std::string& Json::as_string() const {
  SOPHON_CHECK(type_ == Type::kString);
  return string_;
}

void Json::push_back(Json value) {
  SOPHON_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(value));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  SOPHON_CHECK_MSG(false, "size() on a scalar");
  return 0;
}

const Json& Json::at(std::size_t index) const {
  SOPHON_CHECK(type_ == Type::kArray);
  SOPHON_CHECK(index < array_.size());
  return array_[index];
}

void Json::set(const std::string& key, Json value) {
  SOPHON_CHECK(type_ == Type::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

bool Json::has(const std::string& key) const {
  SOPHON_CHECK(type_ == Type::kObject);
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  SOPHON_CHECK(type_ == Type::kObject);
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  SOPHON_CHECK_MSG(false, "missing key: " + key);
  static const Json kNull;
  return kNull;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  SOPHON_CHECK(type_ == Type::kObject);
  return object_;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_into(std::string& out, double v) {
  SOPHON_CHECK_MSG(std::isfinite(v), "JSON numbers must be finite");
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      number_into(out, number_);
      return;
    case Type::kString:
      escape_into(out, string_);
      return;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_into(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.number_ == b.number_;
    case Json::Type::kString:
      return a.string_ == b.string_;
    case Json::Type::kArray:
      return a.array_ == b.array_;
    case Json::Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

// ---- parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    skip_ws();
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume(char expected) {
    if (eof() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::optional<Json> parse_value() {
    if (eof()) return std::nullopt;
    switch (peek()) {
      case 'n':
        return consume_literal("null") ? std::optional<Json>(Json()) : std::nullopt;
      case 't':
        return consume_literal("true") ? std::optional<Json>(Json(true)) : std::nullopt;
      case 'f':
        return consume_literal("false") ? std::optional<Json>(Json(false)) : std::nullopt;
      case '"':
        return parse_string_value();
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (eof()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
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
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return std::nullopt;
            }
            // Basic-multilingual-plane only; encode as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parse_string_value() {
    auto s = parse_string();
    if (!s) return std::nullopt;
    return Json(std::move(*s));
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool digits = false;
    while (!eof() && peek() >= '0' && peek() <= '9') {
      ++pos_;
      digits = true;
    }
    if (!digits) return std::nullopt;
    if (!eof() && peek() == '.') {
      ++pos_;
      bool frac = false;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
        frac = true;
      }
      if (!frac) return std::nullopt;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      bool exp = false;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
        exp = true;
      }
      if (!exp) return std::nullopt;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return Json(value);
  }

  std::optional<Json> parse_array() {
    if (!consume('[')) return std::nullopt;
    Json out = Json::array();
    skip_ws();
    if (consume(']')) return out;
    for (;;) {
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.push_back(std::move(*value));
      skip_ws();
      if (consume(']')) return out;
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Json> parse_object() {
    if (!consume('{')) return std::nullopt;
    Json out = Json::object();
    skip_ws();
    if (consume('}')) return out;
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.set(*key, std::move(*value));
      skip_ws();
      if (consume('}')) return out;
      if (!consume(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace sophon
