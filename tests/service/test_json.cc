/**
 * @file
 * Wire-format JSON: strict parsing (malformed input becomes a
 * ProtocolError, never UB), exact u64 round-trips, and the
 * determinism the memo cache leans on — dump() is a pure function
 * of the value.
 */

#include <gtest/gtest.h>

#include <string>

#include "service/json.hh"

using namespace contutto::service;

namespace
{

TEST(Json, ScalarsRoundTrip)
{
    EXPECT_EQ(Json::parse("null").kind(), Json::Kind::null);
    EXPECT_TRUE(Json::parse("true").asBool());
    EXPECT_FALSE(Json::parse("false").asBool());
    EXPECT_EQ(Json::parse("42").asU64(), 42u);
    EXPECT_EQ(Json::parse("-7").asI64(), -7);
    EXPECT_DOUBLE_EQ(Json::parse("2.5").asDouble(), 2.5);
    EXPECT_EQ(Json::parse("\"hi\\n\"").asString(), "hi\n");
    EXPECT_EQ(Json::parse("0").asU64(), 0u);
    EXPECT_DOUBLE_EQ(Json::parse("-0.5").asDouble(), -0.5);
    EXPECT_DOUBLE_EQ(Json::parse("-1.5e-3").asDouble(), -1.5e-3);
    EXPECT_EQ(Json::parse("\"a \\\"quoted\\\" string\"").asString(),
              "a \"quoted\" string");
    EXPECT_NO_THROW(Json::parse(
        "{\"a\": [1, 2.5, true, false, null], \"b\": {\"c\": \"d\"}}"));
}

TEST(Json, U64RoundTripsExactly)
{
    // The seed space is the full 64 bits; a detour through double
    // would corrupt large seeds. The parser must keep the token.
    const std::string max = "18446744073709551615";
    Json j = Json::parse(max);
    EXPECT_EQ(j.asU64(), 18446744073709551615ull);
    EXPECT_EQ(j.dump(), max);
    EXPECT_EQ(Json::number(std::uint64_t(18446744073709551615ull))
                  .dump(),
              max);
}

TEST(Json, DumpIsDeterministicAndInsertionOrdered)
{
    Json j = Json::object();
    j.set("zebra", Json::number(std::uint64_t(1)));
    j.set("alpha", Json::string("x"));
    Json inner = Json::array();
    inner.append(Json::boolean(true));
    inner.append(Json::makeNull());
    j.set("list", inner);
    const std::string once = j.dump();
    EXPECT_EQ(once, "{\"zebra\":1,\"alpha\":\"x\",\"list\":"
                    "[true,null]}");
    // Parse -> dump is the identity on the wire form.
    EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(Json, StrictIntegerReadsRejectFloats)
{
    EXPECT_THROW(Json::parse("1.5").asU64(), ProtocolError);
    EXPECT_THROW(Json::parse("1e3").asU64(), ProtocolError);
    EXPECT_THROW(Json::parse("-1").asU64(), ProtocolError);
    EXPECT_THROW(Json::parse("true").asU64(), ProtocolError);
    EXPECT_THROW(Json::parse("\"7\"").asU64(), ProtocolError);
}

TEST(Json, MalformedInputThrows)
{
    for (const char *bad :
         {"", "{", "[1,]", "[1, 2,]", "{\"a\":}", "{\"a\": }",
          "{\"a\":1,}", "{'a': 1}", "nul", "NaN", "01", "-01",
          "\"unterminated", "{\"a\":1}trailing", "{} trailing",
          "\"bad\\q\"", "{\"a\":1 \"b\":2}", "[1 2]"})
        EXPECT_THROW(Json::parse(bad), ProtocolError)
            << "accepted: " << bad;
}

TEST(Json, DuplicateKeysRejected)
{
    EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), ProtocolError);
}

TEST(Json, DepthCapStopsRecursion)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += "[";
    for (int i = 0; i < 200; ++i)
        deep += "]";
    EXPECT_THROW(Json::parse(deep), ProtocolError);
}

TEST(Json, ObjectAccessors)
{
    Json j = Json::parse("{\"a\":1,\"b\":\"two\"}");
    EXPECT_EQ(j.at("a").asU64(), 1u);
    EXPECT_EQ(j.find("b")->asString(), "two");
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_THROW(j.at("missing"), ProtocolError);
    EXPECT_EQ(j.getU64("a", 9), 1u);
    EXPECT_EQ(j.getU64("zzz", 9), 9u);
    EXPECT_EQ(j.getString("b", "d"), "two");
}

} // namespace
