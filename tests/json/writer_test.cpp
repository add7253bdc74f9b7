// Writer identity battery: the JSON writers (json/text.h) against the
// per-byte escaper and the snprintf number formats they replaced, which
// live on here only as references. The writers promise byte-identical
// output, so every case compares bytes, not parsed values:
//   * every byte value, multi-byte UTF-8, and strings of length 0-64 with
//     a stop byte at every offset (each 16-byte scanner block boundary is
//     crossed), each in a heap buffer of exactly its length so a sanitizer
//     build catches a load past the end;
//   * numbers at the format's edges and 10^6 seeded random finite bit
//     patterns against %lld / %.17g (JSON) and %.9g (Prometheus), and the
//     non-finite values, which JSON writes as null;
//   * Parse(Dump(v)) == v over every document tests/json/data accepts.

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "json/json.h"
#include "json/text.h"

namespace swapserve::json {
namespace {

// The escaper the writer replaced: one byte per append.
std::string ReferenceEscaped(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

// The number format the writer replaced: integral values below 1e15 as
// %lld, everything else as %.<precision>g.
std::string ReferenceNumber(double d, int precision) {
  char buf[64];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
  }
  return buf;
}

// Escapes `s` from a heap buffer of exactly s.size() bytes, so a read past
// the end is a heap overflow a sanitizer build reports, not slack in a
// std::string's capacity.
std::string EscapedFromExactBuffer(std::string_view s) {
  const std::unique_ptr<char[]> exact(new char[s.size()]);
  s.copy(exact.get(), s.size());
  std::string out;
  AppendJsonEscaped(std::string_view(exact.get(), s.size()), out);
  return out;
}

std::string JsonNumber(double d) {
  std::string out;
  AppendJsonNumber(d, out);
  return out;
}

TEST(JsonWriterTest, EveryByteValueMatchesReference) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    for (const std::string& s :
         {std::string(1, c), "ab" + std::string(1, c) + "yz",
          std::string(40, c)}) {
      EXPECT_EQ(EscapedFromExactBuffer(s), ReferenceEscaped(s))
          << "byte " << b;
    }
  }
}

TEST(JsonWriterTest, EscapesUseShortFormsAndLowercaseHex) {
  EXPECT_EQ(EscapedFromExactBuffer(std::string("\"\\\n\r\t\b\f\x01\x1f\0", 10)),
            "\"\\\"\\\\\\n\\r\\t\\b\\f\\u0001\\u001f\\u0000\"");
  // '/', DEL and bytes >= 0x80 pass through unescaped.
  EXPECT_EQ(EscapedFromExactBuffer("/\x7f\x80\xff"), "\"/\x7f\x80\xff\"");
}

TEST(JsonWriterTest, MultiByteUtf8PassesThrough) {
  const std::vector<std::string> cases = {
      "caf\xc3\xa9",                          // 2-byte
      "\xe2\x82\xac 100",                     // 3-byte euro sign
      "\xf0\x9f\x98\x80 grin",                // 4-byte, beyond the BMP
      "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e\"\n\xf0\x9f\x92\xa9\\",
      std::string(100, 'x') + "\xc3\xa9\t" + std::string(17, 'y'),
  };
  for (const std::string& s : cases) {
    EXPECT_EQ(EscapedFromExactBuffer(s), ReferenceEscaped(s)) << s;
    // The escaped text parses back to the same bytes.
    Result<Value> back = Parse(EscapedFromExactBuffer(s));
    ASSERT_TRUE(back.ok()) << s;
    EXPECT_EQ(back->AsString(), s);
  }
}

TEST(JsonWriterTest, StopByteAtEveryOffsetAcrossBlockBoundaries) {
  // Stop bytes, plus bytes next to the scanner's comparisons that must
  // not stop it (0x20, 0x7f, 0x80, 0xff).
  const std::string probes("\"\\\n\x00\x01\x1f\x20\x7f\x80\xff", 10);
  for (std::size_t len = 0; len <= 64; ++len) {
    // A filler with high bytes, so a signed byte compare would misfire.
    std::string clean(len, 'a');
    for (std::size_t i = 0; i < len; ++i) {
      if (i % 5 == 3) clean[i] = static_cast<char>(0xC3 + i % 3);
    }
    EXPECT_EQ(EscapedFromExactBuffer(clean), ReferenceEscaped(clean))
        << "clean, length " << len;
    for (std::size_t at = 0; at < len; ++at) {
      for (char probe : probes) {
        std::string s = clean;
        s[at] = probe;
        EXPECT_EQ(EscapedFromExactBuffer(s), ReferenceEscaped(s))
            << "length " << len << ", byte "
            << static_cast<int>(static_cast<unsigned char>(probe))
            << " at " << at;
        // Two stops in a row, then the rest of the run.
        if (at + 1 < len) {
          s[at + 1] = '"';
          EXPECT_EQ(EscapedFromExactBuffer(s), ReferenceEscaped(s))
              << "length " << len << ", pair at " << at;
        }
      }
    }
  }
}

TEST(JsonWriterTest, EscaperAppendsToExistingText) {
  std::string out = "{\"k\":";
  AppendJsonEscaped("v\"1", out);
  EXPECT_EQ(out, "{\"k\":\"v\\\"1\"");
}

TEST(JsonWriterTest, NumberEdgesMatchReference) {
  const double edges[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      1e15 - 1,
      -(1e15 - 1),
      1e15,
      -1e15,
      1e15 + 2,
      999999999999999.5,
      9007199254740993.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN / 3,
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      0.1,
      1.0 / 3,
      -2.0 / 3,
      0.5,
      1e-7,
      123456.789,
      1e21,
      1e300,
  };
  for (double d : edges) {
    EXPECT_EQ(JsonNumber(d), ReferenceNumber(d, 17)) << d;
  }
  EXPECT_EQ(JsonNumber(-0.0), "0");
  EXPECT_EQ(JsonNumber(1e15 - 1), "999999999999999");
  EXPECT_EQ(JsonNumber(1e15), "1000000000000000");  // %.17g, not %lld
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");
}

TEST(JsonWriterTest, RandomFiniteBitPatternsMatchReference) {
  std::mt19937_64 rng(20251020);
  int checked = 0;
  while (checked < 1'000'000) {
    const double d = std::bit_cast<double>(rng());
    if (!std::isfinite(d)) continue;
    ++checked;
    const std::string got = JsonNumber(d);
    const std::string want = ReferenceNumber(d, 17);
    // The Prometheus exporter's precision, through the shared formatter.
    char buf[kMaxNumberChars];
    const std::string got9(buf, FormatNumber(d, 9, buf));
    const std::string want9 = ReferenceNumber(d, 9);
    if (got != want || got9 != want9) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(d) << ": "
                    << got << " != " << want << " or " << got9
                    << " != " << want9;
      break;
    }
  }
}

TEST(JsonWriterTest, NonFiniteNumbersWriteNull) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double d : {kInf, -kInf, nan, -nan}) {
    EXPECT_EQ(JsonNumber(d), "null") << d;
  }
  // Dump's output always parses, so Parse accepts its own output.
  Value doc = Value::MakeObject();
  doc["inf"] = Value(kInf);
  doc["nan"] = Value(-nan);
  doc["list"] = Value(Array{Value(1.5), Value(-kInf)});
  EXPECT_EQ(doc.Dump(), "{\"inf\":null,\"list\":[1.5,null],\"nan\":null}");
  Result<Value> back = Parse(doc.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Find("inf")->is_null());
  EXPECT_TRUE(Parse(doc.Pretty()).ok());
}

// Integers up to 2^53 scaled by 2^-4..2^12, and again divided by 1024:
// both sides of the 1e15 cut, integral and not.
TEST(JsonWriterTest, RandomScaledIntegersMatchReference) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> mantissa(-(1LL << 53),
                                                       1LL << 53);
  std::uniform_int_distribution<int> shift(-4, 12);
  for (int i = 0; i < 200'000; ++i) {
    const double d = std::ldexp(static_cast<double>(mantissa(rng)),
                                shift(rng)) /
                     (i % 2 == 0 ? 1.0 : 1024.0);
    ASSERT_EQ(JsonNumber(d), ReferenceNumber(d, 17)) << d;
  }
}

TEST(JsonWriterTest, DumpRoundTripsEveryCorpusDocument) {
  int documents = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SWAPSERVE_JSON_DATA_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    Result<Value> v = Parse(text.str());
    if (!v.ok()) continue;  // n_ files, and any i_ file the DOM rejects
    ++documents;
    for (const std::string& out : {v->Dump(), v->Pretty()}) {
      Result<Value> back = Parse(out);
      ASSERT_TRUE(back.ok()) << entry.path() << ": " << out;
      EXPECT_TRUE(*back == *v) << entry.path();
      EXPECT_EQ(back->Dump(), v->Dump()) << entry.path();
    }
  }
  EXPECT_GE(documents, 30);
}

}  // namespace
}  // namespace swapserve::json
