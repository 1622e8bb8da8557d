/**
 * @file
 * Every committed baseline round-trips through the block field lists:
 * each line of each bench/baselines JSONL file parses, and writing its
 * xfer, timeline, imbalance (nested roofline included), host and
 * serve blocks back through the lists keeps every key and value of
 * the original block. The lists may add keys an older writer lacked.
 */

#include <filesystem>
#include <fstream>
#include <map>

#include <gtest/gtest.h>

#include "perf/record.hh"
#include "telemetry/json.hh"

using namespace alphapim;
using namespace alphapim::perf;

namespace
{

/** Every key of `want` is in `got` with the same type and value;
 * nested objects compare recursively. */
void
expectContains(const telemetry::JsonValue &want,
               const telemetry::JsonValue &got, const std::string &where)
{
    ASSERT_TRUE(got.isObject()) << where;
    for (const auto &[key, value] : want.members()) {
        const telemetry::JsonValue *back = got.find(key);
        ASSERT_NE(back, nullptr) << where << key << " was dropped";
        ASSERT_EQ(back->type(), value.type()) << where << key;
        if (value.isObject())
            expectContains(value, *back, where + key + ".");
        else if (value.isString())
            EXPECT_EQ(back->asString(), value.asString()) << where << key;
        else
            EXPECT_EQ(back->asNumber(), value.asNumber()) << where << key;
    }
}

} // namespace

TEST(RunRecordBaselines, EveryBlockRoundTripsThroughItsList)
{
    const std::filesystem::path dir =
        ALPHA_PIM_SOURCE_DIR "/bench/baselines";
    std::map<std::string, std::size_t> blocks_seen;
    std::size_t records = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".jsonl")
            continue;
        std::ifstream in(entry.path());
        std::string line;
        for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
            if (line.empty())
                continue;
            ++records;
            const std::string where = entry.path().filename().string() +
                                      ":" + std::to_string(lineno) + ": ";
            RunRecord r;
            std::string error;
            ASSERT_TRUE(parseRunRecord(line, r, &error))
                << where << error;
            telemetry::JsonValue doc;
            ASSERT_TRUE(telemetry::JsonValue::parse(line, doc, &error));
            forEachBlock([&](const char *name, auto member, auto fields) {
                const telemetry::JsonValue *original = doc.find(name);
                const auto &block = r.*member;
                ASSERT_EQ(original != nullptr, block.has_value())
                    << where << name;
                if (!block)
                    return;
                ++blocks_seen[name];
                telemetry::JsonWriter w;
                telemetry::writeFields(w, *block, fields);
                telemetry::JsonValue back;
                ASSERT_TRUE(telemetry::JsonValue::parse(w.str(), back,
                                                        &error))
                    << error;
                expectContains(*original, back, where + name + ".");
            });
        }
    }
    EXPECT_GT(records, 0u);
    // The committed baselines exercise every block.
    for (const char *name :
         {"xfer", "timeline", "imbalance", "host", "serve"})
        EXPECT_GT(blocks_seen[name], 0u) << name;
}
