#include "cli/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace oipa {

JsonValue::JsonValue() : kind_(Kind::kNull) {}
JsonValue::JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
JsonValue::JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
JsonValue::JsonValue(int64_t v) : kind_(Kind::kInt), int_(v) {}
JsonValue::JsonValue(uint64_t v)
    : kind_(Kind::kInt), int_(static_cast<int64_t>(v)) {}
JsonValue::JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
JsonValue::JsonValue(const char* s)
    : kind_(Kind::kString), string_(s) {}
JsonValue::JsonValue(std::string s)
    : kind_(Kind::kString), string_(std::move(s)) {}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  OIPA_CHECK(is_object()) << "Set() on a non-object JsonValue";
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

JsonValue& JsonValue::Append(JsonValue value) {
  OIPA_CHECK(is_array()) << "Append() on a non-array JsonValue";
  elements_.push_back(std::move(value));
  return *this;
}

bool JsonValue::bool_value() const {
  OIPA_CHECK(is_bool()) << "bool_value() on a non-bool JsonValue";
  return bool_;
}

int64_t JsonValue::int_value() const {
  OIPA_CHECK(is_number()) << "int_value() on a non-number JsonValue";
  return is_int() ? int_ : static_cast<int64_t>(double_);
}

double JsonValue::double_value() const {
  OIPA_CHECK(is_number()) << "double_value() on a non-number JsonValue";
  return is_double() ? double_ : static_cast<double>(int_);
}

const std::string& JsonValue::string_value() const {
  OIPA_CHECK(is_string()) << "string_value() on a non-string JsonValue";
  return string_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  OIPA_CHECK(is_object()) << "Find() on a non-object JsonValue";
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(size_t i) const {
  OIPA_CHECK(is_array()) << "at() on a non-array JsonValue";
  OIPA_CHECK_LT(i, elements_.size());
  return elements_[i];
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  OIPA_CHECK(is_object()) << "members() on a non-object JsonValue";
  return members_;
}

size_t JsonValue::size() const {
  if (is_object()) return members_.size();
  if (is_array()) return elements_.size();
  return 0;
}

std::string JsonValue::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad =
      pretty ? std::string(static_cast<size_t>(indent) * (depth + 1), ' ')
             : "";
  const std::string close_pad =
      pretty ? std::string(static_cast<size_t>(indent) * depth, ' ') : "";
  const char* sep = pretty ? ": " : ":";

  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int_));
      *out += buf;
      break;
    }
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        *out += "null";
        break;
      }
      // Shortest text that parses back to the same double, so a value
      // survives a wire round trip bit for bit.
      char buf[32];
      const std::to_chars_result written =
          std::to_chars(buf, buf + sizeof(buf), double_);
      out->append(buf, written.ptr);
      break;
    }
    case Kind::kString:
      *out += '"';
      *out += Escape(string_);
      *out += '"';
      break;
    case Kind::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) *out += ',';
        first = false;
        if (pretty) {
          *out += '\n';
          *out += pad;
        }
        *out += '"';
        *out += Escape(k);
        *out += '"';
        *out += sep;
        v.DumpTo(out, indent, depth + 1);
      }
      if (pretty) {
        *out += '\n';
        *out += close_pad;
      }
      *out += '}';
      break;
    }
    case Kind::kArray: {
      if (elements_.empty()) {
        *out += "[]";
        break;
      }
      *out += '[';
      bool first = true;
      for (const auto& v : elements_) {
        if (!first) *out += ',';
        first = false;
        if (pretty) {
          *out += '\n';
          *out += pad;
        }
        v.DumpTo(out, indent, depth + 1);
      }
      if (pretty) {
        *out += '\n';
        *out += close_pad;
      }
      *out += ']';
      break;
    }
  }
}

}  // namespace oipa
