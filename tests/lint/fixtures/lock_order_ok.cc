// Fixture: compliant twin of lock_order_bad.cc. Sorting the operands by
// name before acquiring (the name-ordered idiom) stays silent.
namespace fixture {

sim::Task<> Transfer(Pair pair) {
  if (pair.b.name() < pair.a.name()) std::swap(pair.a, pair.b);
  auto first = co_await pair.a.AcquireExclusive();
  auto second = co_await pair.b.AcquireExclusive();
  pair.Commit();
}

}  // namespace fixture
