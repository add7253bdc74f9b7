// Fixture: coro-ref-param must fire on borrowed views passed by value to
// Task-returning coroutines: a std::string_view or std::span parameter
// dangles like a reference once the caller's string or buffer goes away.
// Never compiled; consumed by lint_fixture_test.
namespace fixture {

sim::Task<int> CountModel(std::string_view model);
sim::Task<> Replay(std::span<const Event> events, int limit);

}  // namespace fixture
