#include "util/name.h"

#include <mutex>
#include <ostream>
#include <set>

namespace swapserve {

const std::string Name::kEmpty;

Name::Name(std::string_view name) : name_(&kEmpty) {
  if (name.empty()) return;
  struct Table {
    std::mutex mu;
    std::set<std::string, std::less<>> names;  // guarded by mu
  };
  static Table* const table = new Table;
  std::lock_guard<std::mutex> lock(table->mu);
  auto it = table->names.find(name);
  if (it == table->names.end()) it = table->names.emplace(name).first;
  name_ = &*it;
}

std::ostream& operator<<(std::ostream& os, Name name) {
  return os << name.str();
}

}  // namespace swapserve
