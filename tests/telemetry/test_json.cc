/**
 * @file
 * JSON writer/parser tests: documents built with JsonWriter must
 * parse back with JsonValue, escaping must round-trip, and malformed
 * input must be rejected with an error instead of crashing. Field
 * lists write and read a struct by key, nested objects included, and
 * reject unsigned values that do not fit.
 */

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/json.hh"

using namespace alphapim::telemetry;

TEST(JsonWriter, FlatObject)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("bfs");
    w.key("count").value(std::uint64_t{42});
    w.key("ratio").value(0.5);
    w.key("ok").value(true);
    w.key("none").null();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"name\":\"bfs\",\"count\":42,"
                       "\"ratio\":0.5,\"ok\":true,\"none\":null}");
}

TEST(JsonWriter, NestedStructuresRoundTrip)
{
    JsonWriter w;
    w.beginObject();
    w.key("events").beginArray();
    for (int i = 0; i < 3; ++i) {
        w.beginObject();
        w.key("id").value(static_cast<std::int64_t>(-i));
        w.key("args").beginObject();
        w.key("x").value(static_cast<double>(i) / 3.0);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();

    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(w.str(), root, &error)) << error;
    const JsonValue *events = root.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->items().size(), 3u);
    const JsonValue *id = events->items()[2].find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_DOUBLE_EQ(id->asNumber(), -2.0);
    const JsonValue *args = events->items()[1].find("args");
    ASSERT_NE(args, nullptr);
    const JsonValue *x = args->find("x");
    ASSERT_NE(x, nullptr);
    EXPECT_DOUBLE_EQ(x->asNumber(), 1.0 / 3.0);
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    JsonWriter w;
    w.beginArray();
    w.value("a\"b\\c\n\t\x01z");
    w.endArray();

    JsonValue root;
    ASSERT_TRUE(JsonValue::parse(w.str(), root, nullptr));
    ASSERT_TRUE(root.isArray());
    ASSERT_EQ(root.items().size(), 1u);
    EXPECT_EQ(root.items()[0].asString(), "a\"b\\c\n\t\x01z");
}

TEST(JsonWriter, DoublesRoundTripExactly)
{
    const double samples[] = {0.0, -0.0, 1.0, -1.5, 1e-300, 1e300,
                              0.1, 1.0 / 3.0, 12345.6789};
    for (const double v : samples) {
        JsonWriter w;
        w.beginArray();
        w.value(v);
        w.endArray();
        JsonValue root;
        ASSERT_TRUE(JsonValue::parse(w.str(), root, nullptr));
        EXPECT_EQ(root.items()[0].asNumber(), v) << w.str();
    }
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.value(-std::numeric_limits<double>::infinity());
    w.endArray();
    EXPECT_EQ(w.str(), "[null,null,null]");
}

TEST(JsonWriter, NonFinitePolicyAppliesToStaticNumber)
{
    // arg(key, double) routes through JsonWriter::number, so trace
    // args inherit the same NaN/Inf -> null policy.
    EXPECT_EQ(JsonWriter::number(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(JsonWriter::number(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(JsonWriter::number(
                  -std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(JsonWriter::number(2.5), "2.5");
}

TEST(JsonWriter, NonFiniteObjectValueParsesBackAsNull)
{
    JsonWriter w;
    w.beginObject();
    w.key("slowdown_factor")
        .value(std::numeric_limits<double>::quiet_NaN());
    w.endObject();
    JsonValue root;
    ASSERT_TRUE(JsonValue::parse(w.str(), root, nullptr));
    const JsonValue *v = root.find("slowdown_factor");
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->isNull());
}

TEST(JsonWriter, DeeplyNestedArraysRoundTrip)
{
    constexpr int kDepth = 200;
    JsonWriter w;
    for (int i = 0; i < kDepth; ++i)
        w.beginArray();
    w.value(std::uint64_t{7});
    for (int i = 0; i < kDepth; ++i)
        w.endArray();

    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(w.str(), root, &error)) << error;
    const JsonValue *v = &root;
    for (int i = 0; i < kDepth - 1; ++i) {
        ASSERT_TRUE(v->isArray());
        ASSERT_EQ(v->items().size(), 1u);
        v = &v->items()[0];
    }
    ASSERT_EQ(v->items().size(), 1u);
    EXPECT_DOUBLE_EQ(v->items()[0].asNumber(), 7.0);
}

TEST(JsonWriter, DeeplyNestedObjectsRoundTrip)
{
    constexpr int kDepth = 100;
    JsonWriter w;
    for (int i = 0; i < kDepth; ++i) {
        w.beginObject();
        w.key("child");
    }
    w.beginObject();
    w.key("leaf").value(true);
    w.endObject();
    for (int i = 0; i < kDepth; ++i)
        w.endObject();

    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(w.str(), root, &error)) << error;
    const JsonValue *v = &root;
    for (int i = 0; i < kDepth; ++i) {
        v = v->find("child");
        ASSERT_NE(v, nullptr) << "depth " << i;
    }
    const JsonValue *leaf = v->find("leaf");
    ASSERT_NE(leaf, nullptr);
    EXPECT_TRUE(leaf->asBool());
}

TEST(JsonWriter, HostBlockShapedDocumentRoundTrips)
{
    // Mirror of the "host" block run records carry since schema v5:
    // mixed integer counts and fractional seconds inside a nested
    // object must survive the writer -> parser path bit-exactly.
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("alpha-pim-run-v5");
    w.key("host").beginObject();
    w.key("total_seconds").value(1.8125);
    w.key("replay_seconds").value(0.71875);
    w.key("replay_slots").value(std::uint64_t{123456789012345ULL});
    w.key("replay_slots_per_sec").value(1.7e8);
    w.key("slowdown_factor").value(54321.125);
    w.key("peak_rss_bytes").value(std::uint64_t{268435456});
    w.endObject();
    w.endObject();

    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(w.str(), root, &error)) << error;
    const JsonValue *host = root.find("host");
    ASSERT_NE(host, nullptr);
    ASSERT_TRUE(host->isObject());
    EXPECT_EQ(host->find("total_seconds")->asNumber(), 1.8125);
    EXPECT_EQ(host->find("replay_seconds")->asNumber(), 0.71875);
    EXPECT_EQ(host->find("replay_slots")->asNumber(),
              123456789012345.0);
    EXPECT_EQ(host->find("replay_slots_per_sec")->asNumber(), 1.7e8);
    EXPECT_EQ(host->find("slowdown_factor")->asNumber(), 54321.125);
    EXPECT_EQ(host->find("peak_rss_bytes")->asNumber(), 268435456.0);
}

TEST(JsonWriter, RawValueSplicesFragment)
{
    JsonWriter w;
    w.beginObject();
    w.key("inner").rawValue("{\"a\":1}");
    w.endObject();
    JsonValue root;
    ASSERT_TRUE(JsonValue::parse(w.str(), root, nullptr));
    const JsonValue *inner = root.find("inner");
    ASSERT_NE(inner, nullptr);
    ASSERT_TRUE(inner->isObject());
    EXPECT_DOUBLE_EQ(inner->find("a")->asNumber(), 1.0);
}

TEST(JsonValue, ParsesLiteralsAndWhitespace)
{
    JsonValue root;
    ASSERT_TRUE(
        JsonValue::parse(" { \"a\" : [ true , false , null ] } ",
                         root, nullptr));
    const JsonValue *a = root.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_TRUE(a->items()[0].asBool());
    EXPECT_FALSE(a->items()[1].asBool());
    EXPECT_TRUE(a->items()[2].isNull());
}

TEST(JsonValue, RejectsMalformedInput)
{
    const char *bad[] = {
        "",          "{",           "[1,]",       "{\"a\":}",
        "{\"a\" 1}", "\"unclosed",  "[1 2]",      "nul",
        "{]",        "[1] trailing"};
    for (const char *text : bad) {
        JsonValue root;
        std::string error;
        EXPECT_FALSE(JsonValue::parse(text, root, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JsonValue, ParsesUnicodeEscapes)
{
    JsonValue root;
    ASSERT_TRUE(JsonValue::parse("[\"\\u0041\\u00e9\"]", root,
                                 nullptr));
    EXPECT_EQ(root.items()[0].asString(), "A\xc3\xa9");
}

TEST(JsonValue, FindOnNonObjectReturnsNull)
{
    JsonValue root;
    ASSERT_TRUE(JsonValue::parse("[1,2]", root, nullptr));
    EXPECT_EQ(root.find("a"), nullptr);
}

namespace
{

struct Sample
{
    double x = 0.0;
    std::uint64_t n = 0;
    unsigned u = 0;
    std::string s;
    double inner = 0.0;
};

constexpr JsonField<Sample> kSampleList[] = {
    field<&Sample::x>("x"),
    field<&Sample::n>("n"),
    field<&Sample::u>("u"),
    field<&Sample::s>("s"),
    {"y", [](Sample &s) -> FieldPtr { return &s.inner; },
     Compare::None, Better::Lower, "nested"},
};
const FieldList<Sample> kSampleFields = kSampleList;

/** Read `json` through the sample list; the error on failure. */
std::string
readError(const std::string &json)
{
    JsonValue doc;
    EXPECT_TRUE(JsonValue::parse(json, doc, nullptr)) << json;
    Sample out;
    std::string error;
    return readFields(doc, out, kSampleFields, &error) ? "" : error;
}

} // namespace

TEST(JsonField, WriteReadRoundTripWithNestedObject)
{
    const Sample in{1.5, std::uint64_t{1} << 60, 4000000000u, "CSC-2D",
                    0.25};
    JsonWriter w;
    writeFields(w, in, kSampleFields);
    EXPECT_EQ(w.str(), "{\"x\":1.5,\"n\":1152921504606846976,"
                       "\"u\":4000000000,\"s\":\"CSC-2D\","
                       "\"nested\":{\"y\":0.25}}");

    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(w.str(), doc, nullptr));
    Sample out;
    ASSERT_TRUE(readFields(doc, out, kSampleFields, nullptr));
    EXPECT_EQ(out.x, 1.5);
    EXPECT_EQ(out.n, std::uint64_t{1} << 60);
    EXPECT_EQ(out.u, 4000000000u);
    EXPECT_EQ(out.s, "CSC-2D");
    EXPECT_EQ(out.inner, 0.25);
}

TEST(JsonField, UnsignedFieldsRejectNumbersThatDoNotFit)
{
    // Absent keys and values of another type leave members alone.
    EXPECT_EQ(readError("{\"n\":\"7\",\"x\":null}"), "");
    // The largest values each type holds read back.
    EXPECT_EQ(readError("{\"n\":18446744073709549568}"), "");
    EXPECT_EQ(readError("{\"u\":4294967295}"), "");
    for (const char *bad : {"-1", "2.5", "18446744073709551616", "1e30"})
        EXPECT_EQ(readError(std::string("{\"n\":") + bad + "}").rfind(
                      "n: ", 0),
                  0u)
            << bad;
    EXPECT_EQ(readError("{\"u\":4294967296}"),
              "u: 4294967296 does not fit an unsigned integer");
}
