// Fixture: compliant twin of coro_ref_param_view_bad.cc. An owning copy, a
// view inside a by-value container's type, a parameter merely named span,
// and an annotated view stay silent.
namespace fixture {

sim::Task<int> CountModel(std::string model);
sim::Task<> Replay(std::vector<std::string_view> names);
sim::Task<> Trace(obs::Span span);

// swaplint-ok(coro-ref-param): the literal table is static
sim::Task<> Lookup(std::string_view key);

}  // namespace fixture
