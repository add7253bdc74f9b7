#include "json/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "json/text.h"

namespace swapserve::json {

Value::Value(Array a)
    : type_(Type::kArray), array_(std::make_unique<Array>(std::move(a))) {}

Value::Value(Object o)
    : type_(Type::kObject), object_(std::make_unique<Object>(std::move(o))) {}

Value::Value(const Value& other)
    : type_(other.type_),
      bool_(other.bool_),
      number_(other.number_),
      string_(other.string_) {
  if (other.array_) array_ = std::make_unique<Array>(*other.array_);
  if (other.object_) object_ = std::make_unique<Object>(*other.object_);
}

Value& Value::operator=(const Value& other) {
  if (this != &other) *this = Value(other);
  return *this;
}

bool Value::AsBool() const {
  SWAP_CHECK_MSG(is_bool(), "json: not a bool");
  return bool_;
}

double Value::AsDouble() const {
  SWAP_CHECK_MSG(is_number(), "json: not a number");
  return number_;
}

std::int64_t Value::AsInt() const {
  SWAP_CHECK_MSG(is_number(), "json: not a number");
  return SaturatingInt64(number_);
}

const std::string& Value::AsString() const {
  SWAP_CHECK_MSG(is_string(), "json: not a string");
  return string_;
}

const Array& Value::AsArray() const {
  SWAP_CHECK_MSG(is_array(), "json: not an array");
  return *array_;
}

Array& Value::AsArray() {
  SWAP_CHECK_MSG(is_array(), "json: not an array");
  return *array_;
}

const Object& Value::AsObject() const {
  SWAP_CHECK_MSG(is_object(), "json: not an object");
  return *object_;
}

Object& Value::AsObject() {
  SWAP_CHECK_MSG(is_object(), "json: not an object");
  return *object_;
}

const Value* Value::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = object_->find(std::string(key));
  return it == object_->end() ? nullptr : &it->second;
}

Value& Value::operator[](const std::string& key) {
  SWAP_CHECK_MSG(is_object(), "json: operator[] on non-object");
  return (*object_)[key];
}

bool Value::GetBool(std::string_view key, bool fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

double Value::GetDouble(std::string_view key, double fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsDouble() : fallback;
}

std::int64_t Value::GetInt(std::string_view key, std::int64_t fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsInt() : fallback;
}

std::string Value::GetString(std::string_view key, std::string fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString()
                                          : std::move(fallback);
}

void Value::PushBack(Value v) {
  SWAP_CHECK_MSG(is_array(), "json: PushBack on non-array");
  array_->push_back(std::move(v));
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return *array_ == *other.array_;
    case Type::kObject: return *object_ == *other.object_;
  }
  return false;
}

namespace {

void Indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Value::DumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendJsonNumber(number_, out);
      break;
    case Type::kString:
      AppendJsonEscaped(string_, out);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& v : *array_) {
        if (!first) out += ',';
        first = false;
        Indent(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_->empty()) Indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, v] : *object_) {
        if (!first) out += ',';
        first = false;
        Indent(out, indent, depth + 1);
        AppendJsonEscaped(key, out);
        out += indent > 0 ? ": " : ":";
        v.DumpTo(out, indent, depth + 1);
      }
      if (!object_->empty()) Indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(out, 0, 0);
  return out;
}

std::string Value::Pretty() const {
  std::string out;
  DumpTo(out, 2, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    SkipWhitespace();
    SWAP_ASSIGN_OR_RETURN(Value v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgument("json parse error at offset " +
                           std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && IsJsonWhitespace(text_[pos_])) ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseValue() {
    if (depth_ > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        SWAP_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Value(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return Value(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Value(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Value(nullptr);
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseObject() {
    ++depth_;
    SWAP_CHECK(Consume('{'));
    Object obj;
    SkipWhitespace();
    if (Consume('}')) {
      --depth_;
      return Value(std::move(obj));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      SWAP_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipWhitespace();
      SWAP_ASSIGN_OR_RETURN(Value v, ParseValue());
      obj.insert_or_assign(std::move(key), std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    --depth_;
    return Value(std::move(obj));
  }

  Result<Value> ParseArray() {
    ++depth_;
    SWAP_CHECK(Consume('['));
    Array arr;
    SkipWhitespace();
    if (Consume(']')) {
      --depth_;
      return Value(std::move(arr));
    }
    while (true) {
      SkipWhitespace();
      SWAP_ASSIGN_OR_RETURN(Value v, ParseValue());
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    --depth_;
    return Value(std::move(arr));
  }

  // Clean runs between escapes are found by the shared scanner and
  // appended in bulk. Each stop byte is consumed before it is judged, so
  // a raw control byte is reported one past its own offset.
  Result<std::string> ParseString() {
    SWAP_CHECK(Consume('"'));
    const char* const base = text_.data();
    const char* const end = base + text_.size();
    const char* p = base + pos_;
    std::string out;
    while (p != end) {
      const char* const run_end = ScanStringRun(p, end);
      out.append(p, static_cast<std::size_t>(run_end - p));
      p = run_end;
      if (p == end) break;
      const char c = *p++;
      pos_ = static_cast<std::size_t>(p - base);
      if (c == '"') return out;
      if (c != '\\') return Error("unescaped control character in string");
      if (const char* error = DecodeEscape(p, end, out)) {
        pos_ = static_cast<std::size_t>(p - base);
        return Error(error);
      }
    }
    pos_ = text_.size();
    return Error("unterminated string");
  }

  Result<Value> ParseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && IsNumberChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected a value");
    const NumberToken num = DecodeNumber(text_.substr(start, pos_ - start));
    if (!num.ok) return Error("invalid number");
    return Value(num.d);
  }

  static constexpr int kMaxDepth = kMaxParseDepth;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace swapserve::json
