#include "json/document.h"

#include <cstring>
#include <utility>

#include "json/text.h"

namespace swapserve::json {

// ---------------------------------------------------------------------------
// View accessors
// ---------------------------------------------------------------------------

bool Document::View::AsBool() const {
  SWAP_CHECK_MSG(is_bool(), "json: not a bool");
  return node().kind == Kind::kTrue;
}

double Document::View::AsDouble() const {
  SWAP_CHECK_MSG(is_number(), "json: not a number");
  return node().d;
}

std::int64_t Document::View::AsInt() const {
  SWAP_CHECK_MSG(is_number(), "json: not a number");
  return node().kind == Kind::kInt ? node().i : SaturatingInt64(node().d);
}

std::string_view Document::View::AsString() const {
  SWAP_CHECK_MSG(is_string(), "json: not a string");
  return node().str;
}

Document::View Document::View::FirstChild() const {
  if (!valid() || node().count == 0) return View();
  return View(doc_, node().first);
}

Document::View Document::View::NextSibling() const {
  if (!valid() || node().next == 0) return View();
  return View(doc_, node().next);
}

Document::View Document::View::Find(std::string_view key) const {
  if (!is_object()) return View();
  for (View c = FirstChild(); c; c = c.NextSibling()) {
    if (c.key() == key) return c;
  }
  return View();
}

bool Document::View::GetBool(std::string_view key, bool fallback) const {
  return Find(key).BoolOr(fallback);
}

double Document::View::GetDouble(std::string_view key, double fallback) const {
  return Find(key).DoubleOr(fallback);
}

std::int64_t Document::View::GetInt(std::string_view key,
                                    std::int64_t fallback) const {
  return Find(key).IntOr(fallback);
}

std::string_view Document::View::GetString(std::string_view key,
                                           std::string_view fallback) const {
  return Find(key).StringOr(fallback);
}

// ---------------------------------------------------------------------------
// In-situ parser
// ---------------------------------------------------------------------------

// The parser appends nodes to the Document's arena as it descends. Children
// of a container are linked through Node::next because they are not
// contiguous (a child array's own children land between two siblings).
// All cross-references are indices: the arena vector may reallocate while a
// container is still being filled.
//
// Every step returns bool. The failing step records its offset and text and
// the whole descent unwinds on `false`, so one error message is built, once,
// by ParseInSitu — not a Status per recursion level.
class Document::Parser {
 public:
  Parser(std::vector<Node>& nodes, char* begin, std::size_t size)
      : nodes_(nodes), begin_(begin), p_(begin), end_(begin + size) {}

  bool Run() {
    nodes_.clear();
    SkipWhitespace();
    nodes_.emplace_back();
    if (!ParseValue(0)) return false;
    SkipWhitespace();
    if (p_ != end_) return Fail("trailing characters after JSON document");
    return true;
  }

  // The first failure's message; valid after Run() returned false.
  Status ErrorStatus() const {
    return InvalidArgument("json parse error at offset " +
                           std::to_string(error_at_ - begin_) + ": " +
                           error_);
  }

 private:
  bool Fail(const char* what) { return FailAt(p_, what); }
  bool FailAt(const char* at, const char* what) {
    error_at_ = at;
    error_ = what;
    return false;
  }
  std::string_view FailString(const char* at, const char* what) {
    FailAt(at, what);
    return {};
  }

  void SkipWhitespace() {
    while (p_ < end_ && IsJsonWhitespace(*p_)) ++p_;
  }

  bool Consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (static_cast<std::size_t>(end_ - p_) >= lit.size() &&
        std::string_view(p_, lit.size()) == lit) {
      p_ += lit.size();
      return true;
    }
    return false;
  }

  bool ParseLiteral(Index idx, std::string_view lit, Kind kind) {
    if (!ConsumeLiteral(lit)) return Fail("invalid literal");
    nodes_[idx].kind = kind;
    return true;
  }

  // Fills nodes_[idx] (already allocated, key already set by the caller).
  bool ParseValue(Index idx) {  // NOLINT(misc-no-recursion)
    if (depth_ > kMaxParseDepth) return Fail("nesting too deep");
    if (p_ >= end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseContainer(idx, Kind::kObject);
      case '[':
        return ParseContainer(idx, Kind::kArray);
      case '"': {
        const std::string_view s = ParseString();
        if (s.data() == nullptr) return false;
        nodes_[idx].kind = Kind::kString;
        nodes_[idx].str = s;
        return true;
      }
      case 't':
        return ParseLiteral(idx, "true", Kind::kTrue);
      case 'f':
        return ParseLiteral(idx, "false", Kind::kFalse);
      case 'n':
        return ParseLiteral(idx, "null", Kind::kNull);
      default:
        return ParseNumber(idx);
    }
  }

  bool ParseContainer(Index idx, Kind kind) {  // NOLINT(misc-no-recursion)
    ++depth_;
    const bool object = kind == Kind::kObject;
    SWAP_CHECK(Consume(object ? '{' : '['));
    nodes_[idx].kind = kind;
    SkipWhitespace();
    if (Consume(object ? '}' : ']')) {
      --depth_;
      return true;
    }
    Index prev = 0;
    Index count = 0;
    while (true) {
      SkipWhitespace();
      std::string_view key;
      if (object) {
        if (p_ >= end_ || *p_ != '"') return Fail("expected object key");
        key = ParseString();
        if (key.data() == nullptr) return false;
        SkipWhitespace();
        if (!Consume(':')) return Fail("expected ':' after key");
        SkipWhitespace();
      }
      const Index child = static_cast<Index>(nodes_.size());
      nodes_.emplace_back();
      nodes_[child].key = key;
      if (!ParseValue(child)) return false;
      if (count == 0) {
        nodes_[idx].first = child;
      } else {
        nodes_[prev].next = child;
      }
      prev = child;
      ++count;
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(object ? '}' : ']')) break;
      return Fail(object ? "expected ',' or '}' in object"
                         : "expected ',' or ']' in array");
    }
    nodes_[idx].count = count;
    --depth_;
    return true;
  }

  // Parses a string in place. The fast path (no escapes) is a pure borrow
  // of the buffer between the quotes. From the first escape on, decoding
  // writes through a cursor that starts at that escape — every escape
  // sequence decodes to fewer bytes than its source, so the write cursor
  // never overtakes the read cursor — and the clean runs between escapes
  // move down in bulk. The decoded string is the prefix [start, w).
  //
  // Error offsets: a control byte in the leading clean run is reported at
  // its own offset, one after the first escape at the offset past it (the
  // decoding loop has consumed it).
  //
  // Returns the string, or a null view on failure (a parsed string, even an
  // empty one, points into the buffer). Returning it by value keeps it in
  // registers: an out-parameter written as two words and read back as one
  // 16-byte copy stalls store forwarding on every string.
  std::string_view ParseString() {
    char* const start = begin_ + (p_ - begin_) + 1;  // past the open quote
    const char* p = ScanStringRun(start, end_);
    if (p == end_) return FailString(p, "unterminated string");
    if (*p == '"') {
      p_ = p + 1;
      return {start, static_cast<std::size_t>(p - start)};
    }
    if (*p != '\\') {
      return FailString(p, "unescaped control character in string");
    }
    char* w = start + (p - start);
    while (true) {
      const char c = *p++;  // a stop byte: quote, backslash or control
      if (c == '"') {
        p_ = p;
        return {start, static_cast<std::size_t>(w - start)};
      }
      if (c != '\\') {
        return FailString(p, "unescaped control character in string");
      }
      if (const char* error = DecodeEscape(p, end_, w)) {
        return FailString(p, error);
      }
      const char* const run_end = ScanStringRun(p, end_);
      const auto n = static_cast<std::size_t>(run_end - p);
      std::memmove(w, p, n);
      w += n;
      p = run_end;
      if (p == end_) return FailString(p, "unterminated string");
    }
  }

  bool ParseNumber(Index idx) {
    const char* const start = p_;
    while (p_ < end_ && IsNumberChar(*p_)) ++p_;
    if (p_ == start) return Fail("expected a value");
    const NumberToken num = DecodeNumber(
        std::string_view(start, static_cast<std::size_t>(p_ - start)));
    if (!num.ok) return Fail("invalid number");
    if (num.is_int) {
      nodes_[idx].kind = Kind::kInt;
      nodes_[idx].i = num.i;
      nodes_[idx].d = num.d;
    } else {
      nodes_[idx].kind = Kind::kDouble;
      nodes_[idx].d = num.d;
    }
    return true;
  }

  std::vector<Node>& nodes_;
  char* const begin_;
  const char* p_;
  const char* const end_;
  int depth_ = 0;
  const char* error_at_ = nullptr;
  const char* error_ = "";
};

Status Document::ParseInSitu(std::string& buffer) {
  return ParseInSitu(buffer.data(), buffer.size());
}

Status Document::ParseInSitu(char* data, std::size_t size) {
  Parser parser(nodes_, data, size);
  if (parser.Run()) return Status::Ok();
  nodes_.clear();
  return parser.ErrorStatus();
}

// ---------------------------------------------------------------------------
// DOM bridge
// ---------------------------------------------------------------------------

namespace {

Value NodeToValue(const Document& doc,
                  Document::View v) {  // NOLINT(misc-no-recursion)
  using Kind = Document::Kind;
  if (v.is_array()) {
    Array arr;
    arr.reserve(v.size());
    for (Document::View c = v.FirstChild(); c; c = c.NextSibling()) {
      arr.push_back(NodeToValue(doc, c));
    }
    return Value(std::move(arr));
  }
  if (v.is_object()) {
    // insert_or_assign in insertion order = last duplicate wins, matching
    // the DOM parser's behavior on duplicate keys.
    Object obj;
    for (Document::View c = v.FirstChild(); c; c = c.NextSibling()) {
      obj.insert_or_assign(std::string(c.key()), NodeToValue(doc, c));
    }
    return Value(std::move(obj));
  }
  if (v.is_string()) return Value(std::string(v.AsString()));
  if (v.is_number()) return Value(v.AsDouble());
  if (v.is_bool()) return Value(v.AsBool());
  (void)Kind::kNull;
  return Value(nullptr);
}

}  // namespace

Value Document::ToValue() const {
  SWAP_CHECK_MSG(!empty(), "json: ToValue on empty Document");
  return NodeToValue(*this, root());
}

}  // namespace swapserve::json
