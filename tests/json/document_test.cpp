// Unit tests for the zero-copy in-situ parser (DESIGN.md §16). The
// conformance suite covers dialect agreement; this file pins the Document's
// own contracts: borrowing from the caller's buffer, in-place unescaping,
// insertion-ordered iteration with a key-sorted DOM conversion, the integer
// fast path, saturating int conversion, and arena/buffer reuse.

#include "json/document.h"

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "json/json.h"

namespace swapserve::json {
namespace {

TEST(DocumentTest, ScalarRoots) {
  Document doc;
  std::string buf = "null";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().is_null());

  buf = "true";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().AsBool());

  buf = "-17";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().is_int());
  EXPECT_EQ(doc.root().AsInt(), -17);

  buf = "3.25";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_FALSE(doc.root().is_int());
  EXPECT_DOUBLE_EQ(doc.root().AsDouble(), 3.25);

  buf = "\"hi\"";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_EQ(doc.root().AsString(), "hi");
}

TEST(DocumentTest, CleanStringsBorrowFromTheBuffer) {
  Document doc;
  std::string buf = R"({"model":"llama-3.2-1b"})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  const std::string_view model = doc.root().GetString("model", "");
  EXPECT_EQ(model, "llama-3.2-1b");
  // Zero-copy: the view points inside the caller's buffer.
  EXPECT_GE(model.data(), buf.data());
  EXPECT_LT(model.data(), buf.data() + buf.size());
}

TEST(DocumentTest, EscapedStringsUnescapeInPlace) {
  Document doc;
  std::string buf = R"("line1\nline2\t\"quoted\"\\A")";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  const std::string_view s = doc.root().AsString();
  EXPECT_EQ(s, "line1\nline2\t\"quoted\"\\A");
  // Still borrowed: unescaping shrinks, never reallocates.
  EXPECT_GE(s.data(), buf.data());
  EXPECT_LT(s.data(), buf.data() + buf.size());
}

TEST(DocumentTest, UnicodeEscapesAndSurrogatePairs) {
  Document doc;
  std::string buf = R"("é € 😀")";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_EQ(doc.root().AsString(),
            "\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80");

  buf = R"("\ud800")";
  EXPECT_FALSE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.empty());
}

TEST(DocumentTest, ObjectIterationKeepsInsertionOrder) {
  Document doc;
  std::string buf = R"({"z":1,"a":2,"m":3})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  std::string order;
  for (Document::View m = doc.root().FirstChild(); m; m = m.NextSibling()) {
    order += m.key();
  }
  EXPECT_EQ(order, "zam");  // document order, not sorted
  EXPECT_EQ(doc.root().size(), 3u);
}

TEST(DocumentTest, DumpSortsKeysAndMatchesDom) {
  Document doc;
  std::string buf = R"({"z":1,"a":{"y":[1,2],"b":"x"},"m":3.5})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  const std::string dom_dump = Parse(R"({"z":1,"a":{"y":[1,2],"b":"x"},"m":3.5})")->Dump();
  EXPECT_EQ(doc.ToValue().Dump(), dom_dump);
}

TEST(DocumentTest, DuplicateKeysKeepEveryMemberButDumpLastWins) {
  Document doc;
  std::string buf = R"({"a":1,"a":2,"b":3})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  // The arena keeps both members in document order...
  EXPECT_EQ(doc.root().size(), 3u);
  // ...Find sees the first...
  EXPECT_EQ(doc.root().Find("a").AsInt(), 1);
  // ...and conversion collapses to last-wins, matching the DOM.
  EXPECT_EQ(doc.ToValue().Dump(), Parse(buf)->Dump());
  EXPECT_EQ(doc.ToValue().Dump(), R"({"a":2,"b":3})");
}

TEST(DocumentTest, TypedGettersFallBack) {
  Document doc;
  std::string buf = R"({"n":1,"s":"x","b":true})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  const Document::View root = doc.root();
  EXPECT_EQ(root.GetInt("n", -1), 1);
  EXPECT_EQ(root.GetInt("missing", -1), -1);
  EXPECT_EQ(root.GetInt("s", -1), -1);  // wrong type -> fallback
  EXPECT_EQ(root.GetString("s", "d"), "x");
  EXPECT_EQ(root.GetString("n", "d"), "d");
  EXPECT_TRUE(root.GetBool("b", false));
  EXPECT_DOUBLE_EQ(root.GetDouble("n", 0.0), 1.0);
  EXPECT_FALSE(root.Find("missing").valid());
}

TEST(DocumentTest, IntegerFastPathBoundaries) {
  Document doc;
  // 18 digits: exact through the integer fast path.
  std::string buf = "999999999999999999";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().is_int());
  EXPECT_EQ(doc.root().AsInt(), 999999999999999999LL);

  // 19 digits: falls back to double, still a number.
  buf = "9999999999999999999";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().is_number());
  EXPECT_FALSE(doc.root().is_int());
}

TEST(DocumentTest, OutOfRangeIntsSaturate) {
  Document doc;
  std::string buf = R"({"big":1e300,"small":-1e300})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_EQ(doc.root().GetInt("big", 0), INT64_MAX);
  EXPECT_EQ(doc.root().GetInt("small", 0), INT64_MIN);
}

TEST(DocumentTest, ErrorLeavesDocumentEmpty) {
  Document doc;
  std::string buf = R"({"ok":1})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_FALSE(doc.empty());

  buf = R"({"broken":)";
  EXPECT_FALSE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.empty());
  EXPECT_FALSE(doc.root().valid());
}

TEST(DocumentTest, ReuseAcrossParsesRecyclesTheArena) {
  Document doc;
  for (int i = 0; i < 100; ++i) {
    std::string buf = R"({"model":"m","messages":[{"role":"user","content":"hi"}]})";
    ASSERT_TRUE(doc.ParseInSitu(buf).ok());
    EXPECT_EQ(doc.root().GetString("model", ""), "m");
  }
}

TEST(DocumentTest, MoveTransfersTheArena) {
  Document doc;
  std::string buf = R"([1,2,3])";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  Document moved = std::move(doc);
  EXPECT_EQ(moved.root().size(), 3u);
}

TEST(DocumentTest, RawRangeOverloadMatchesStringOverload) {
  std::string text = R"({"a":[1,"two",null]})";
  std::string buf1 = text;
  Document d1;
  ASSERT_TRUE(d1.ParseInSitu(buf1).ok());

  std::string buf2 = text;
  Document d2;
  ASSERT_TRUE(d2.ParseInSitu(buf2.data(), buf2.size()).ok());
  EXPECT_TRUE(d1.ToValue() == d2.ToValue());
}

TEST(DocumentTest, DeepNestingLimitsMatchTheDialect) {
  const auto nested = [](int n) {
    return std::string(static_cast<std::size_t>(n), '[') +
           std::string(static_cast<std::size_t>(n), ']');
  };
  Document doc;
  std::string ok = nested(257);
  EXPECT_TRUE(doc.ParseInSitu(ok).ok());
  std::string bad = nested(258);
  EXPECT_FALSE(doc.ParseInSitu(bad).ok());
}

// One parse through each parser, over an exact-size heap copy of `text`, so
// a string scan that reads past the end is an out-of-bounds read under
// AddressSanitizer.
struct Verdict {
  bool ok = false;
  std::string value;  // the decoded root string, when ok
  std::string error;  // the status message, when not
};

std::unique_ptr<char[]> ExactCopy(std::string_view text) {
  auto buf = std::make_unique<char[]>(text.size());
  std::memcpy(buf.get(), text.data(), text.size());
  return buf;
}

Verdict InSituVerdict(std::string_view text) {
  const std::unique_ptr<char[]> buf = ExactCopy(text);
  Document doc;
  const Status s = doc.ParseInSitu(buf.get(), text.size());
  if (!s.ok()) return {false, "", s.message()};
  return {true, std::string(doc.root().AsString()), ""};
}

Verdict DomVerdict(std::string_view text) {
  const std::unique_ptr<char[]> buf = ExactCopy(text);
  const Result<Value> v = Parse(std::string_view(buf.get(), text.size()));
  if (!v.ok()) return {false, "", v.status().message()};
  return {true, v->AsString(), ""};
}

std::string ErrorAt(std::size_t offset, std::string_view what) {
  return "json parse error at offset " + std::to_string(offset) + ": " +
         std::string(what);
}

// Every byte that stops the string scanner ('"', '\\', 0x00-0x1F), at every
// offset of every string length 0-40 — across the 16-byte steps and the
// scalar tail — with and without an escape earlier in the string (the
// in-situ parser's decoding loop). Bytes that must not stop it (0x7F,
// 0x80-0xFF) pass through. Both parsers must agree on the verdict and the
// decoded value, and each must report errors at the offsets it always has:
// the DOM one past a raw control byte; the in-situ parser at it, unless an
// escape came first.
TEST(DocumentTest, StringScanStopsAtEveryByteAtEveryOffset) {
  std::string specials = "\"\\";
  for (int c = 0; c < 0x20; ++c) specials += static_cast<char>(c);
  std::string pass_through = "\x7F";
  for (int c = 0x80; c <= 0xFF; ++c) pass_through += static_cast<char>(c);

  for (const std::string_view prefix : {"", "\\t"}) {
    const std::string decoded_prefix = prefix.empty() ? "" : "\t";
    for (std::size_t len = 0; len <= 40; ++len) {
      const std::string clean =
          '"' + std::string(prefix) + std::string(len, 'n') + '"';
      const Verdict clean_insitu = InSituVerdict(clean);
      EXPECT_TRUE(clean_insitu.ok) << clean_insitu.error;
      EXPECT_EQ(clean_insitu.value, decoded_prefix + std::string(len, 'n'));
      EXPECT_EQ(DomVerdict(clean).value, clean_insitu.value);
      for (std::size_t k = 0; k < len; ++k) {
        const std::size_t at = 1 + prefix.size() + k;  // offset in the text
        for (const char b : specials) {
          std::string content(len, 'n');
          content[k] = b;
          const std::string text = '"' + std::string(prefix) + content + '"';
          const Verdict insitu = InSituVerdict(text);
          const Verdict dom = DomVerdict(text);
          SCOPED_TRACE("len " + std::to_string(len) + " offset " +
                       std::to_string(k) + " byte " +
                       std::to_string(static_cast<unsigned char>(b)) +
                       (prefix.empty() ? "" : " after an escape"));
          EXPECT_EQ(insitu.ok, dom.ok);
          if (b == '"') {
            // The string closes early; the rest of the body trails it.
            EXPECT_EQ(insitu.error,
                      ErrorAt(at + 1,
                              "trailing characters after JSON document"));
            EXPECT_EQ(dom.error, insitu.error);
          } else if (b == '\\' && k + 1 == len) {
            // Escapes the closing quote: nothing closes the string.
            EXPECT_EQ(insitu.error,
                      ErrorAt(text.size(), "unterminated string"));
            EXPECT_EQ(dom.error, insitu.error);
          } else if (b == '\\') {
            // "\\n": the escape decodes and the string goes on.
            const std::string want = decoded_prefix + std::string(k, 'n') +
                                     '\n' + std::string(len - k - 2, 'n');
            EXPECT_EQ(insitu.value, want);
            EXPECT_EQ(dom.value, want);
          } else {
            const char* what = "unescaped control character in string";
            EXPECT_EQ(insitu.error,
                      ErrorAt(prefix.empty() ? at : at + 1, what));
            EXPECT_EQ(dom.error, ErrorAt(at + 1, what));
          }
        }
      }
      // Pass-through bytes fill the whole string, rotated so that every
      // one of them lands on every offset.
      for (std::size_t r = 0; len > 0 && r < pass_through.size(); ++r) {
        std::string content(len, 'n');
        for (std::size_t k = 0; k < len; ++k) {
          content[k] = pass_through[(r + k) % pass_through.size()];
        }
        const std::string text = '"' + std::string(prefix) + content + '"';
        const Verdict insitu = InSituVerdict(text);
        SCOPED_TRACE("pass-through, len " + std::to_string(len) +
                     " rotation " + std::to_string(r));
        EXPECT_TRUE(insitu.ok) << insitu.error;
        EXPECT_EQ(insitu.value, decoded_prefix + content);
        EXPECT_EQ(DomVerdict(text).value, insitu.value);
      }
    }
  }

  // An unterminated string whose bytes end on, just before and just after
  // a 16-byte step is rejected at the end of the input by both parsers.
  for (const std::string_view prefix : {"", "\\t"}) {
    for (const std::size_t len : {14, 15, 16, 17, 31, 32, 33, 47, 48}) {
      const std::string text =
          '"' + std::string(prefix) + std::string(len, 'n');
      SCOPED_TRACE("unterminated, len " + std::to_string(len));
      EXPECT_EQ(InSituVerdict(text).error,
                ErrorAt(text.size(), "unterminated string"));
      EXPECT_EQ(DomVerdict(text).error,
                ErrorAt(text.size(), "unterminated string"));
    }
  }
}

}  // namespace
}  // namespace swapserve::json
