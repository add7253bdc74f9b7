// Unit tests for the zero-copy in-situ parser (DESIGN.md §16). The
// conformance suite covers dialect agreement; this file pins the Document's
// own contracts: borrowing from the caller's buffer, in-place unescaping,
// insertion-ordered iteration with a key-sorted DOM conversion, the integer
// fast path, saturating int conversion, and arena/buffer reuse.

#include "json/document.h"

#include <string>
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

}  // namespace
}  // namespace swapserve::json
