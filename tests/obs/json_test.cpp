// JSON reader/writer coverage: RFC 8259 values and escapes, the rejections
// the validator relies on, and the escaper's control-character handling
// round-tripped through the parser.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace ethsim::obs {
namespace {

TEST(Json, ParsesEveryValueKind) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"( {"i": -12, "d": 1.5e2, "s": "a\"b\u00e9\ud83d\ude00", "t": true,
           "n": null, "a": [1, [], {}], "big": 99999999999999999999} )",
      &doc, &error))
      << error;
  EXPECT_EQ(doc.members.size(), 7u);
  EXPECT_TRUE(doc.Find("i")->is_int());
  EXPECT_EQ(doc.Find("i")->integer, -12);
  EXPECT_EQ(doc.Find("d")->type, JsonValue::Type::kDouble);
  EXPECT_DOUBLE_EQ(doc.Find("d")->number, 150.0);
  EXPECT_EQ(doc.Find("s")->string, "a\"b\xc3\xa9\xf0\x9f\x98\x80");
  EXPECT_TRUE(doc.Find("t")->boolean);
  EXPECT_EQ(doc.Find("n")->type, JsonValue::Type::kNull);
  EXPECT_EQ(doc.Find("a")->items.size(), 3u);
  // Integers past int64 are numbers, not ints.
  EXPECT_EQ(doc.Find("big")->type, JsonValue::Type::kDouble);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(Json, KeepsUnsignedIntegersAboveInt64MaxExact) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"max": 18446744073709551615, "above": 9223372036854775808,
          "small": 7, "neg": -1, "over": 18446744073709551616})",
      &doc, &error))
      << error;
  const JsonValue& max = *doc.Find("max");
  EXPECT_EQ(max.type, JsonValue::Type::kUint);
  EXPECT_TRUE(max.is_uint());
  EXPECT_FALSE(max.is_int());
  EXPECT_EQ(max.uinteger, UINT64_MAX);
  EXPECT_EQ(doc.Find("above")->uinteger, std::uint64_t{INT64_MAX} + 1);
  // Integers that fit an int64 stay kInt; the non-negative ones read as
  // unsigned too.
  EXPECT_TRUE(doc.Find("small")->is_int());
  EXPECT_TRUE(doc.Find("small")->is_uint());
  EXPECT_EQ(doc.Find("small")->uinteger, 7u);
  EXPECT_TRUE(doc.Find("neg")->is_int());
  EXPECT_FALSE(doc.Find("neg")->is_uint());
  // Past uint64 a number is a double.
  EXPECT_EQ(doc.Find("over")->type, JsonValue::Type::kDouble);
  EXPECT_FALSE(doc.Find("over")->is_uint());
}

TEST(Json, RejectsMalformedDocuments) {
  JsonValue doc;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "[1 2]", "01", "1.", "-",
        "tru", "\"open", "\"raw\ttab\"", "\"\\x\"", "\"\\ud83d\"", "{} {}"}) {
    std::string error;
    EXPECT_FALSE(ParseJson(bad, &doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Nesting is bounded so a hostile document cannot exhaust the stack.
  EXPECT_FALSE(ParseJson(std::string(100000, '['), &doc));
}

TEST(Json, StringEscapesControlCharactersAndRoundTrips) {
  const std::string raw =
      std::string("east\tcoast \"q\" \\ \n\r\b\f") + '\x01' + '\x1f';
  const std::string quoted = JsonString(raw);
  EXPECT_EQ(quoted,
            "\"east\\tcoast \\\"q\\\" \\\\ \\n\\r\\b\\f\\u0001\\u001f\"");
  JsonValue doc;
  ASSERT_TRUE(ParseJson(quoted, &doc)) << quoted;
  EXPECT_EQ(doc.string, raw);
}

}  // namespace
}  // namespace ethsim::obs
