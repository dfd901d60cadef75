#ifndef OIPA_CLI_JSON_WRITER_H_
#define OIPA_CLI_JSON_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace oipa {

/// A minimal ordered JSON document builder for CLI / benchmark output.
/// Insertion order of object keys is preserved so emitted results are
/// stable and diff-friendly across runs (important for BENCH_*.json
/// trajectories). Build values bottom-up and Dump() the root:
///
///   JsonValue row = JsonValue::Object();
///   row.Set("k", 10).Set("utility", 12.5);
///   JsonValue rows = JsonValue::Array();
///   rows.Append(std::move(row));
///   std::string text = rows.Dump(/*indent=*/2);
class JsonValue {
 public:
  /// A JSON null.
  JsonValue();
  JsonValue(bool b);                      // NOLINT(runtime/explicit)
  JsonValue(int v);                       // NOLINT(runtime/explicit)
  JsonValue(int64_t v);                   // NOLINT(runtime/explicit)
  JsonValue(uint64_t v);                  // NOLINT(runtime/explicit)
  JsonValue(double v);                    // NOLINT(runtime/explicit)
  JsonValue(const char* s);               // NOLINT(runtime/explicit)
  JsonValue(std::string s);               // NOLINT(runtime/explicit)

  static JsonValue Object();
  static JsonValue Array();

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Scalar readers (the serve wire protocol parses requests back into
  /// JsonValue trees). Each aborts on a kind mismatch — callers gate on
  /// the is_*() predicates first; is_number() admits both readers below
  /// (int_value() truncates a double, double_value() widens an int).
  bool bool_value() const;
  int64_t int_value() const;
  double double_value() const;
  const std::string& string_value() const;

  /// Object only: the member named `key`, or nullptr when absent.
  const JsonValue* Find(const std::string& key) const;

  /// Array only: element `i` (aborts out of range).
  const JsonValue& at(size_t i) const;

  /// Object only: members in insertion order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object only: inserts (or overwrites) `key`. Returns *this so sets
  /// chain. New keys keep insertion order.
  JsonValue& Set(const std::string& key, JsonValue value);

  /// Array only: appends an element. Returns *this.
  JsonValue& Append(JsonValue value);

  size_t size() const;

  /// Serializes the value. `indent` < 0 emits compact one-line JSON;
  /// otherwise pretty-prints with `indent` spaces per nesting level.
  /// Finite doubles take the shortest form that parses back to the same
  /// value; non-finite ones are emitted as null (JSON has no NaN/Inf).
  std::string Dump(int indent = -1) const;

  /// Escapes `s` as the contents of a JSON string literal (no quotes).
  static std::string Escape(const std::string& s);

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kObject, kArray };

  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, JsonValue>> members_;  // object
  std::vector<JsonValue> elements_;                         // array
};

}  // namespace oipa

#endif  // OIPA_CLI_JSON_WRITER_H_
