// Fixture: polling-loop stays silent on loops that park on a change
// signal, sleep to a known instant, do work before sleeping, or carry an
// annotated reason.
namespace fixture {

class Sampler {
 public:
  sim::Task<> Parked() {
    while (running_) {
      co_await changed_.Wait();
      Sample();
    }
  }

  sim::Task<> UntilHealed() {
    while (!Reachable()) co_await sim_.WaitUntil(healed_at_);
  }

  sim::Task<> Chunked(int remaining) {
    while (remaining > 0) {
      const int n = Next();
      co_await sim_.Delay(interval_ * n);
      remaining -= n;
    }
  }

  sim::Task<> Annotated() {
    // swaplint-ok(polling-loop): the scan's inputs have no change signal
    while (running_) {
      co_await sim_.Delay(interval_);
      Sample();
    }
  }

  sim::Task<> DoWhile() {
    do {
      Sample();
    } while (running_);
    co_return;
  }

 private:
  void Sample();
  bool Reachable() const;
  int Next();
  sim::Simulation& sim_;
  sim::SimEvent changed_;
  sim::SimTime healed_at_;
  sim::SimDuration interval_;
  bool running_ = true;
};

}  // namespace fixture
