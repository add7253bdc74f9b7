// Bounded MPMC channel for coroutines (the simulator's analogue of Go
// channels, which the paper's implementation uses for request queues and
// response streaming).
//
// Semantics:
//   - Send suspends while the buffer is full; returns false if the channel
//     is (or becomes) closed before the value is accepted.
//   - Recv suspends while the buffer is empty; returns std::nullopt once the
//     channel is closed *and* drained.
//   - Close wakes all blocked senders (send fails) and receivers (nullopt
//     after drain). Values already buffered remain receivable.
//   - TrySend never suspends (used for queue-capacity admission control).
//
// Waiter records live in awaiter frames, which are stable while suspended; a
// channel must outlive any coroutine blocked on it.

#pragma once

#include <coroutine>
#include <optional>
#include <utility>

#include "sim/simulation.h"
#include "sim/small_ring.h"
#include "util/status.h"

namespace swapserve::sim {

template <typename T>
class Channel {
 public:
  Channel(Simulation& sim, std::size_t capacity)
      : sim_(&sim), capacity_(capacity) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() {
    SWAP_CHECK_MSG(send_waiters_.empty() && recv_waiters_.empty(),
                   "channel destroyed with blocked coroutines");
  }

  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(Channel* ch, T value) : ch_(ch), value_(std::move(value)) {}
    bool await_ready() {
      if (ch_->closed_) {
        accepted_ = false;
        return true;
      }
      if (ch_->TryDeposit(value_)) {
        accepted_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ch_->send_waiters_.push_back(this);
    }
    bool await_resume() const { return accepted_; }

   private:
    friend class Channel;
    Channel* ch_;
    T value_;
    bool accepted_ = false;
    std::coroutine_handle<> handle_;
  };

  class [[nodiscard]] RecvAwaiter {
   public:
    explicit RecvAwaiter(Channel* ch) : ch_(ch) {}
    bool await_ready() {
      if (ch_->TryWithdraw(value_)) return true;
      return ch_->closed_;  // closed and drained -> nullopt
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ch_->recv_waiters_.push_back(this);
    }
    std::optional<T> await_resume() { return std::move(value_); }

   private:
    friend class Channel;
    Channel* ch_;
    std::optional<T> value_;
    std::coroutine_handle<> handle_;
  };

  // co_await ch.Send(v) -> bool accepted
  SendAwaiter Send(T value) { return SendAwaiter(this, std::move(value)); }
  // co_await ch.Recv() -> std::optional<T>
  RecvAwaiter Recv() { return RecvAwaiter(this); }

  // Non-blocking send; returns false when full or closed. `value` moves
  // straight to the receiver or the buffer, and only when accepted; a
  // caller that keeps its value passes a copy.
  bool TrySend(T&& value) {
    if (closed_) return false;
    return TryDeposit(value);
  }

  // Non-blocking receive.
  std::optional<T> TryRecv() {
    std::optional<T> out;
    TryWithdraw(out);
    return out;
  }

  void Close() {
    if (closed_) return;
    closed_ = true;
    while (!send_waiters_.empty()) {
      SendAwaiter* s = send_waiters_.front();
      send_waiters_.pop_front();
      s->accepted_ = false;
      sim_->Post(s->handle_);
    }
    // Blocked receivers can only exist when the buffer is empty.
    while (!recv_waiters_.empty()) {
      sim_->Post(recv_waiters_.front()->handle_);
      recv_waiters_.pop_front();
    }
  }

  bool closed() const { return closed_; }
  std::size_t size() const { return buffer_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool Full() const { return buffer_.size() >= capacity_; }
  std::size_t blocked_senders() const { return send_waiters_.size(); }
  std::size_t blocked_receivers() const { return recv_waiters_.size(); }

 private:
  // Hand `value` to a blocked receiver or the buffer. Returns false if the
  // buffer is full and nobody is waiting.
  bool TryDeposit(T& value) {
    if (!recv_waiters_.empty()) {
      RecvAwaiter* r = recv_waiters_.front();
      recv_waiters_.pop_front();
      r->value_ = std::move(value);
      sim_->Post(r->handle_);
      return true;
    }
    if (buffer_.size() < capacity_) {
      buffer_.push_back(std::move(value));
      return true;
    }
    return false;
  }

  // Pull a value from the buffer (refilling from a blocked sender) or
  // directly from a blocked sender (zero-capacity rendezvous).
  bool TryWithdraw(std::optional<T>& out) {
    if (!buffer_.empty()) {
      out = std::move(buffer_.front());
      buffer_.pop_front();
      if (!send_waiters_.empty()) {
        SendAwaiter* s = send_waiters_.front();
        send_waiters_.pop_front();
        buffer_.push_back(std::move(s->value_));
        s->accepted_ = true;
        sim_->Post(s->handle_);
      }
      return true;
    }
    if (!send_waiters_.empty()) {
      SendAwaiter* s = send_waiters_.front();
      send_waiters_.pop_front();
      out = std::move(s->value_);
      s->accepted_ = true;
      sim_->Post(s->handle_);
      return true;
    }
    return false;
  }

  Simulation* sim_;
  std::size_t capacity_;
  bool closed_ = false;
  SmallRing<T> buffer_;
  SmallRing<SendAwaiter*> send_waiters_;
  SmallRing<RecvAwaiter*> recv_waiters_;
};

}  // namespace swapserve::sim
