/**
 * @file
 * Manifest and run-record round-trips: manifest fields written with
 * writeManifestFields() parse back identically via
 * parseManifestFields(); a full record survives
 * encodeRunRecord() -> parseRunRecord() with every measurement
 * intact; legacy (pre-manifest) records still load.
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "perf/build_info.hh"
#include "perf/manifest.hh"
#include "perf/record.hh"
#include "telemetry/json.hh"
#include "upmem/profile.hh"

using namespace alphapim;
using namespace alphapim::perf;

namespace
{

RunManifest
sampleManifest()
{
    RunManifest m;
    m.schema = kRunSchema;
    m.gitSha = "0123abcd+dirty";
    m.buildType = "Release";
    m.buildFlags = "asan";
    m.datasetFingerprint = 0xf862f1803618d855ull;
    m.addConfig("dpus", std::uint64_t{256});
    m.addConfig("scale", 0.25);
    m.addConfig("quick", true);
    m.addConfigString("strategy", "adaptive");
    return m;
}

} // namespace

TEST(Manifest, JsonRoundTrip)
{
    const RunManifest m = sampleManifest();
    telemetry::JsonWriter w;
    w.beginObject();
    writeManifestFields(w, m);
    w.endObject();

    telemetry::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(telemetry::JsonValue::parse(w.str(), parsed, &error))
        << error;
    const RunManifest back = parseManifestFields(parsed);

    EXPECT_EQ(back.schema, m.schema);
    EXPECT_EQ(back.gitSha, m.gitSha);
    EXPECT_EQ(back.buildType, m.buildType);
    EXPECT_EQ(back.buildFlags, m.buildFlags);
    EXPECT_EQ(back.datasetFingerprint, m.datasetFingerprint);
    ASSERT_EQ(back.config.size(), m.config.size());
    for (std::size_t i = 0; i < m.config.size(); ++i) {
        EXPECT_EQ(back.config[i].first, m.config[i].first);
        EXPECT_EQ(back.config[i].second, m.config[i].second);
    }
}

TEST(Manifest, CurrentManifestCarriesBuildInfo)
{
    const RunManifest m = currentManifest();
    EXPECT_EQ(m.schema, kRunSchema);
    EXPECT_EQ(m.gitSha, gitSha());
    EXPECT_EQ(m.buildType, buildType());
    EXPECT_FALSE(m.gitSha.empty());
}

TEST(RunRecord, EncodeParseRoundTrip)
{
    const RunManifest m = sampleManifest();
    RunKey key;
    key.bench = "fig07";
    key.dataset = "e-En";
    key.variant = "BFS/adaptive";
    key.dpus = 256;
    key.seed = 42;

    core::PhaseTimes times;
    times.load = 0.125;
    times.kernel = 0.5;
    times.retrieve = 0.0625;
    times.merge = 0.03125;

    upmem::LaunchProfile profile;
    profile.aggregate.totalCycles = 4096;
    profile.aggregate.issuedCycles = 1024;
    profile.aggregate.stallCycles[static_cast<std::size_t>(
        upmem::StallReason::Memory)] = 2048;
    profile.aggregate.stallCycles[static_cast<std::size_t>(
        upmem::StallReason::Revolver)] = 1024;
    profile.activeDpus = 8;

    RecordBlocks blocks;
    blocks.xfer = XferCounts{3, 1536, 2, 512, 1, 4096};

    const std::string line =
        encodeRunRecord(m, key, 17, times, &profile, 1.5, blocks);

    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;

    EXPECT_EQ(r.manifest.schema, m.schema);
    EXPECT_EQ(r.manifest.gitSha, m.gitSha);
    EXPECT_EQ(r.manifest.datasetFingerprint, m.datasetFingerprint);
    EXPECT_TRUE(r.key == key);
    EXPECT_EQ(r.key.str(), "fig07/e-En/BFS/adaptive@256dpus");
    EXPECT_EQ(r.iterations, 17u);
    EXPECT_DOUBLE_EQ(r.times.load, times.load);
    EXPECT_DOUBLE_EQ(r.times.kernel, times.kernel);
    EXPECT_DOUBLE_EQ(r.times.retrieve, times.retrieve);
    EXPECT_DOUBLE_EQ(r.times.merge, times.merge);
    EXPECT_DOUBLE_EQ(r.wallSeconds, 1.5);

    ASSERT_TRUE(r.hasProfile);
    EXPECT_EQ(r.totalCycles, 4096u);
    EXPECT_EQ(r.issuedCycles, 1024u);
    EXPECT_EQ(r.activeDpus, 8u);
    EXPECT_DOUBLE_EQ(r.stallFractions.at("memory"), 0.5);
    EXPECT_DOUBLE_EQ(r.stallFractions.at("revolver"), 0.25);

    ASSERT_TRUE(r.xfer);
    EXPECT_EQ(r.xfer->scatters, 3u);
    EXPECT_EQ(r.xfer->scatterBytes, 1536u);
    EXPECT_EQ(r.xfer->gathers, 2u);
    EXPECT_EQ(r.xfer->gatherBytes, 512u);
    EXPECT_EQ(r.xfer->broadcasts, 1u);
    EXPECT_EQ(r.xfer->broadcastBytes, 4096u);
}

TEST(RunRecord, OptionalSectionsStayAbsent)
{
    RunKey key;
    key.bench = "fig02";
    key.dataset = "as00";
    key.variant = "spmv-coo1d";
    key.dpus = 64;
    key.seed = 1;
    core::PhaseTimes times;
    times.kernel = 0.25;

    const std::string line = encodeRunRecord(
        currentManifest(), key, 0, times, nullptr, -1.0);
    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(line, r, &error)) << error;
    EXPECT_FALSE(r.hasProfile);
    EXPECT_FALSE(r.xfer);
    EXPECT_LT(r.wallSeconds, 0.0);
    EXPECT_EQ(r.iterations, 0u);
}

TEST(RunRecord, LegacyRecordWithoutManifestParses)
{
    // PR 1's records: identity + times only, no schema/git_sha.
    const std::string legacy =
        "{\"bench\":\"fig07\",\"dataset\":\"e-En\","
        "\"variant\":\"BFS\",\"dpus\":128,\"seed\":7,"
        "\"times\":{\"load\":0.1,\"kernel\":0.2,"
        "\"retrieve\":0.05,\"merge\":0.01}}";
    RunRecord r;
    std::string error;
    ASSERT_TRUE(parseRunRecord(legacy, r, &error)) << error;
    EXPECT_TRUE(r.manifest.schema.empty());
    EXPECT_EQ(r.key.dpus, 128u);
    EXPECT_DOUBLE_EQ(r.times.kernel, 0.2);
}

TEST(RunRecord, MalformedLinesReportErrors)
{
    RunRecord r;
    std::string error;
    EXPECT_FALSE(parseRunRecord("not json", r, &error));
    EXPECT_FALSE(error.empty());
    // An object with no identity at all is not a run record.
    error.clear();
    EXPECT_FALSE(parseRunRecord("{\"kind\":\"counter\"}", r, &error));
    EXPECT_FALSE(error.empty());

    // An unsigned field whose number does not fit is malformed, and
    // the error names the file, the line and the key. The lines are
    // a v5 fixture record with only its dpus count replaced.
    std::ifstream fixture(ALPHA_PIM_SOURCE_DIR
                          "/tests/data/perf/baseline_v5.jsonl");
    std::string good;
    ASSERT_TRUE(std::getline(fixture, good));
    ASSERT_TRUE(parseRunRecord(good, r, &error)) << error;
    const std::string dpus = "\"dpus\":256,";
    ASSERT_NE(good.find(dpus), std::string::npos);
    for (const char *bad : {"-1", "1e30", "2.5"}) {
        std::string line = good;
        line.replace(line.find(dpus), dpus.size(),
                     "\"dpus\":" + std::string(bad) + ",");
        error.clear();
        EXPECT_FALSE(parseRunRecord(line, r, &error)) << bad;
        EXPECT_NE(error.find("dpus"), std::string::npos) << error;

        const std::string path = testing::TempDir() + "bad_dpus.jsonl";
        std::ofstream(path) << good << "\n" << line << "\n";
        RecordSet set;
        error.clear();
        EXPECT_FALSE(loadRecordSet(path, set, &error)) << bad;
        EXPECT_EQ(error.rfind(path + ":2: dpus: ", 0), 0u) << error;
        std::remove(path.c_str());
    }
}
