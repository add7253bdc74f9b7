// Interned names.
//
// A Name is an 8-byte handle to one entry of a process-wide table of
// strings. Interning a name costs one mutex-guarded lookup, plus one copy
// of its text the first time the process sees it; after that a Name is
// copied by value and compared by address, and never touches the heap.
// Model ids are 17-24 characters, past std::string's inline buffer, so a
// std::string copy of one is a heap block: anything that names a model
// many times — a trace event, a snapshot's owner, a GPU allocation's owner,
// a reservation's requester — holds a Name instead.
//
// The table is a node-based set that only grows and lives as long as the
// process (it is leaked on purpose): a Name stays readable after whatever
// interned it is gone, even while static objects are being destroyed.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace swapserve {

// It reads as the name it holds: it converts to `const std::string&` (a
// string-keyed map's key) and to `std::string_view`, and compares with
// strings. Two Names are equal exactly when they hold the same text.
class Name {
 public:
  // The empty name.
  Name() : name_(&kEmpty) {}
  // Finds or inserts `name` in the table. Interning is a table lookup, so
  // it is always spelled out.
  explicit Name(std::string_view name);

  const std::string& str() const { return *name_; }
  operator const std::string&() const { return *name_; }
  operator std::string_view() const { return *name_; }

  friend bool operator==(Name a, Name b) { return a.name_ == b.name_; }
  friend bool operator==(Name a, std::string_view b) { return *a.name_ == b; }
  friend bool operator==(Name a, const char* b) { return *a.name_ == b; }
  friend std::ostream& operator<<(std::ostream& os, Name name);

 private:
  static const std::string kEmpty;
  const std::string* name_;  // a table entry (or kEmpty); never freed
};

}  // namespace swapserve
