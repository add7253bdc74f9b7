// Fixture: polling-loop must fire on a while loop whose first statement
// awaits a fixed Delay(): the timer wakes whether or not anything changed.
namespace fixture {

class Sampler {
 public:
  sim::Task<> Loop() {
    while (running_) {
      co_await sim_.Delay(interval_);
      Sample();
    }
  }

  sim::Task<> BracelessLoop() {
    while (running_) co_await sim().Delay(interval_);
  }

 private:
  void Sample();
  sim::Simulation& sim();
  sim::Simulation& sim_;
  sim::SimDuration interval_;
  bool running_ = true;
};

}  // namespace fixture
