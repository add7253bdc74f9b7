// libFuzzer entry point for the JSON parsers (DESIGN.md §16).
//
// Built only when configured with -DSWAPSERVE_FUZZ=ON under a compiler
// that provides -fsanitize=fuzzer (clang); the default gcc build never
// compiles this file. The deterministic battery in fuzz_json_test.cpp
// runs the same properties as a plain ctest either way.
//
//   cmake -B build-fuzz -DSWAPSERVE_FUZZ=ON -DCMAKE_CXX_COMPILER=clang++
//   ./build-fuzz/tests/json/fuzz_json parse corpus/

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "json/document.h"
#include "json/json.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  // Both parsers must survive any input and agree on the verdict and tree.
  const swapserve::Result<swapserve::json::Value> dom =
      swapserve::json::Parse(text);

  std::vector<char> buffer(text.begin(), text.end());
  swapserve::json::Document doc;
  const bool insitu_ok = doc.ParseInSitu(buffer.data(), buffer.size()).ok();

  if (insitu_ok != dom.ok()) __builtin_trap();
  if (dom.ok() && doc.ToValue().Dump() != dom->Dump()) __builtin_trap();
  return 0;
}
