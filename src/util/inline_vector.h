// A vector whose first N elements live inside the object.
//
// The swap path keeps one short list per device of a tensor-parallel group
// (transfers to join, allocations to roll back, reservations to hold).
// Declared in a coroutine frame, an InlineVector keeps such a list in the
// frame itself, which the frame pool recycles, instead of a fresh heap
// block per swap; a list that outgrows N spills to the heap and stays
// correct. The elements are contiguous, so a span can borrow them.

#pragma once

#include <cstddef>
#include <memory_resource>
#include <utility>
#include <vector>

namespace swapserve {

template <typename T, std::size_t N>
class InlineVector {
 public:
  InlineVector() { items_.reserve(N); }
  InlineVector(const InlineVector&) = delete;
  InlineVector& operator=(const InlineVector&) = delete;

  void push_back(T value) { items_.push_back(std::move(value)); }
  void clear() { items_.clear(); }
  std::size_t size() const { return items_.size(); }
  T* begin() { return items_.data(); }
  T* end() { return items_.data() + items_.size(); }

 private:
  // Declared in this order so the vector is destroyed before the arena
  // that holds its elements.
  alignas(T) std::byte buffer_[N * sizeof(T)];
  std::pmr::monotonic_buffer_resource arena_{buffer_, sizeof buffer_};
  std::pmr::vector<T> items_{&arena_};
};

}  // namespace swapserve
