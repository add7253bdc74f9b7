// A FIFO ring buffer with inline storage for the common short-queue case.
//
// The simulator's synchronization primitives (SimMutex, SimRwLock, Channel)
// used std::deque for their waiter queues; a deque allocates its map and
// first block on first use, which put an allocation on the uncontended
// mutex-handoff path. SmallRing keeps the first `InlineN` elements in the
// object itself and only touches the heap when a queue outgrows that — and
// once grown, the buffer is retained, so steady-state push/pop never
// allocates. Capacity is always a power of two so the head index wraps with
// a mask instead of a modulo.
//
// Only the operations the sync primitives need are provided: push_back,
// front, pop_front, size/empty, clear. Elements are destroyed eagerly on
// pop_front/clear, matching container semantics.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace swapserve::sim {

template <typename T, std::size_t InlineN = 4>
class SmallRing {
  static_assert(InlineN > 0 && (InlineN & (InlineN - 1)) == 0,
                "inline capacity must be a power of two");

 public:
  SmallRing() = default;
  SmallRing(const SmallRing&) = delete;
  SmallRing& operator=(const SmallRing&) = delete;
  ~SmallRing() {
    clear();
    if (data_ != inline_data()) ::operator delete(data_);
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() { return *Slot(head_); }
  const T& front() const { return *Slot(head_); }

  // One construction in the slot: an rvalue moves in once, an lvalue is
  // copied once. `v` must not be an element of this ring (a push that
  // grows the buffer frees it first).
  void push_back(T&& v) { Append(std::move(v)); }
  void push_back(const T& v) { Append(v); }

  void pop_front() {
    Slot(head_)->~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
    head_ = 0;
  }

 private:
  T* inline_data() { return reinterpret_cast<T*>(inline_buf_); }
  T* Slot(std::size_t i) { return data_ + i; }
  const T* Slot(std::size_t i) const { return data_ + i; }

  template <typename U>
  void Append(U&& v) {
    if (count_ == capacity_) Grow();
    ::new (static_cast<void*>(Slot((head_ + count_) & (capacity_ - 1))))
        T(std::forward<U>(v));
    ++count_;
  }

  void Grow() {
    const std::size_t new_cap = capacity_ * 2;
    T* fresh = static_cast<T*>(::operator new(sizeof(T) * new_cap));
    for (std::size_t i = 0; i < count_; ++i) {
      T* src = Slot((head_ + i) & (capacity_ - 1));
      ::new (static_cast<void*>(fresh + i)) T(std::move(*src));
      src->~T();
    }
    if (data_ != inline_data()) ::operator delete(data_);
    data_ = fresh;
    capacity_ = new_cap;
    head_ = 0;
  }

  alignas(T) unsigned char inline_buf_[sizeof(T) * InlineN];
  T* data_ = reinterpret_cast<T*>(inline_buf_);
  std::size_t capacity_ = InlineN;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace swapserve::sim
