// Minimal JSON value type, writer and parser.
//
// SOPHON persists profiling artifacts (stage-2 sample profiles, offload
// plans) so a long training job can reuse its first-epoch measurements
// across restarts. The subset implemented is exactly what those artifacts
// need: null, bool, finite doubles, strings, arrays, objects — strict
// parsing, deterministic serialisation (object keys keep insertion order).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sophon {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT(google-explicit-constructor)
  Json(double n) : type_(Type::kNumber), number_(n) {}  // NOLINT(google-explicit-constructor)
  Json(int n) : Json(static_cast<double>(n)) {}  // NOLINT(google-explicit-constructor)
  Json(std::int64_t n) : Json(static_cast<double>(n)) {}  // NOLINT(google-explicit-constructor)
  Json(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT(google-explicit-constructor)
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT(google-explicit-constructor)

  static Json array();
  static Json object();

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  /// A number with an integral value of magnitude at most 2^53, which
  /// as_int() reads exactly.
  [[nodiscard]] bool is_integer() const;

  /// Typed accessors; contract-checked against the actual type.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;  // number, checked integral
  [[nodiscard]] const std::string& as_string() const;

  // --- arrays ---
  void push_back(Json value);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t index) const;

  // --- objects ---
  void set(const std::string& key, Json value);
  [[nodiscard]] bool has(const std::string& key) const;
  /// Contract-checked lookup.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items() const;

  /// Serialise. `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Strict parse of a complete document. nullopt on any syntax error or
  /// trailing garbage.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace sophon
