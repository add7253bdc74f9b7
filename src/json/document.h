// Zero-copy in-situ JSON parser for the request hot path (DESIGN.md §16).
//
// Document::ParseInSitu parses a *mutable, caller-owned* buffer and builds
// a flat node arena whose string values are std::string_view slices into
// that buffer — no per-string allocation, no std::map, no recursion into
// heap-allocated children. Escaped strings are unescaped on demand, in
// place: every JSON escape decodes to fewer bytes than it occupies, so the
// decoder writes over the escape sequence it just consumed and the slice
// points at the shortened prefix. Strings without escapes (the common case
// for model names, roles, and prompt text) are pure borrows.
//
// Object members keep *insertion order* in the arena (iteration is
// first-to-last as written); Find sees the first of duplicate keys.
// Serialization is the DOM's job: ToValue().Dump() gives the key-sorted,
// last-duplicate-wins bytes the DOM parse of the same text dumps to.
//
// Number fast path: integer tokens up to 18 digits decode without strtod
// and remember integrality exactly. Dialect (strict RFC 8259 numbers,
// full surrogate-pair escapes, 256-level nesting cap) is shared with the
// DOM parser via text.h.
//
// Lifetime: the Document borrows from the buffer passed to ParseInSitu.
// The buffer must outlive the Document's views; reusing one Document +
// one scratch buffer per connection gives a steady-state allocation-free
// parse (bench_request_plane measures exactly this).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"
#include "util/status.h"

namespace swapserve::json {

class Document {
 public:
  using Index = std::uint32_t;

  // Node kinds are finer-grained than json::Type: integrality is a parse
  // fact here, not a serialization heuristic.
  enum class Kind : std::uint8_t {
    kNull,
    kFalse,
    kTrue,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  struct Node {
    Kind kind = Kind::kNull;
    Index next = 0;   // next sibling (0 = none; the root is never a sibling)
    Index first = 0;  // first child (arrays/objects)
    Index count = 0;  // number of children
    std::string_view key;  // object-member key (empty for array elements)
    std::string_view str;  // string payload
    std::int64_t i = 0;
    double d = 0.0;
  };

  // A cursor over one node. Invalid views (missing members) are falsy and
  // type-check as nothing; typed getters fall back like Value's.
  class View {
   public:
    View() = default;
    View(const Document* doc, Index idx) : doc_(doc), idx_(idx) {}

    explicit operator bool() const { return doc_ != nullptr; }
    bool valid() const { return doc_ != nullptr; }

    bool is_null() const { return valid() && node().kind == Kind::kNull; }
    bool is_bool() const {
      return valid() &&
             (node().kind == Kind::kTrue || node().kind == Kind::kFalse);
    }
    bool is_number() const {
      return valid() &&
             (node().kind == Kind::kInt || node().kind == Kind::kDouble);
    }
    bool is_int() const { return valid() && node().kind == Kind::kInt; }
    bool is_string() const { return valid() && node().kind == Kind::kString; }
    bool is_array() const { return valid() && node().kind == Kind::kArray; }
    bool is_object() const { return valid() && node().kind == Kind::kObject; }

    // Typed accessors; SWAP_CHECK on type mismatch (mirrors Value).
    bool AsBool() const;
    double AsDouble() const;
    std::int64_t AsInt() const;
    std::string_view AsString() const;

    // Container traversal. size() is 0 for non-containers; FirstChild()
    // and NextSibling() return invalid views at the end, so iteration is
    //   for (View c = v.FirstChild(); c; c = c.NextSibling()) ...
    std::size_t size() const { return valid() ? node().count : 0; }
    View FirstChild() const;
    View NextSibling() const;
    // The member key this node was stored under ("" for array elements).
    std::string_view key() const {
      return valid() ? node().key : std::string_view();
    }

    // Object helpers (first match in insertion order; objects with
    // duplicate keys keep every member, lookups see the first).
    View Find(std::string_view key) const;
    bool GetBool(std::string_view key, bool fallback) const;
    double GetDouble(std::string_view key, double fallback) const;
    std::int64_t GetInt(std::string_view key, std::int64_t fallback) const;
    std::string_view GetString(std::string_view key,
                               std::string_view fallback) const;

   private:
    const Node& node() const { return doc_->nodes_[idx_]; }
    const Document* doc_ = nullptr;
    Index idx_ = 0;
  };

  Document() = default;
  Document(Document&&) noexcept = default;
  Document& operator=(Document&&) noexcept = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  // Parse `buffer` in place (escaped strings are rewritten inside it).
  // The node arena is cleared and reused, so a long-lived Document parsing
  // through a reused scratch buffer stops allocating once both high-water
  // marks are reached. On error the Document is left empty.
  [[nodiscard]] Status ParseInSitu(std::string& buffer);
  // Same, over a raw mutable range (the libFuzzer entry uses this).
  [[nodiscard]] Status ParseInSitu(char* data, std::size_t size);

  bool empty() const { return nodes_.empty(); }
  View root() const {
    return nodes_.empty() ? View() : View(this, 0);
  }

  // Deep-copy into the DOM model (used by the conformance suite to prove
  // DOM and in-situ parses agree; integer nodes become integral doubles,
  // matching what the DOM parser produced from the same token).
  Value ToValue() const;

 private:
  friend class View;
  class Parser;

  std::vector<Node> nodes_;
};

}  // namespace swapserve::json
