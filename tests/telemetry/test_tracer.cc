/**
 * @file
 * Tracer tests: the disabled tracer must record nothing (the
 * zero-cost guarantee), the model-time cursor must advance
 * monotonically, and the Chrome trace-event export must be valid
 * JSON with correctly nested spans and the documented track layout
 * -- including an end-to-end BFS run producing per-rank transfer and
 * per-DPU kernel tracks.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/graph_apps.hh"
#include "common/random.hh"
#include "sparse/generators.hh"
#include "telemetry/json.hh"
#include "telemetry/telemetry.hh"
#include "upmem/transfer_model.hh"

using namespace alphapim;
using namespace alphapim::telemetry;

namespace
{

/** Reset the global tracer around each test. */
class TracerTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        tracer().setEnabled(false);
        tracer().clear();
    }

    void
    TearDown() override
    {
        tracer().setEnabled(false);
        tracer().clear();
    }
};

/** Parse the tracer's Chrome export; fails the test on bad JSON. */
JsonValue
parsedTrace()
{
    JsonValue root;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(tracer().chromeTraceJson(), root,
                                 &error))
        << error;
    return root;
}

} // namespace

TEST_F(TracerTest, DisabledTracerRecordsNothing)
{
    ASSERT_FALSE(tracer().enabled());
    tracer().completeEvent(engineTrack, "span", "test", 0.0, 1.0);
    tracer().instantEvent(engineTrack, "mark", "test", 0.5);
    tracer().nameTrack(engineTrack, "engine");
    tracer().advance(1.0);
    {
        ScopedSpan span(engineTrack, "scoped", "test");
        tracer().advance(1.0);
    }
    EXPECT_EQ(tracer().eventCount(), 0u);
    EXPECT_EQ(tracer().now(), 0.0);
}

TEST_F(TracerTest, ClockAdvancesMonotonically)
{
    tracer().setEnabled(true);
    EXPECT_EQ(tracer().now(), 0.0);
    tracer().advance(1.5);
    EXPECT_DOUBLE_EQ(tracer().now(), 1.5);
    tracer().advanceTo(1.0); // backwards: ignored
    EXPECT_DOUBLE_EQ(tracer().now(), 1.5);
    tracer().advanceTo(2.0);
    EXPECT_DOUBLE_EQ(tracer().now(), 2.0);
    tracer().resetClock();
    EXPECT_EQ(tracer().now(), 0.0);
}

TEST_F(TracerTest, ScopedSpanRecordsCursorInterval)
{
    tracer().setEnabled(true);
    tracer().advance(1.0);
    {
        ScopedSpan span(engineTrack, "work", "test");
        tracer().advance(2.0);
    }
    const auto events = tracer().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "work");
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_DOUBLE_EQ(events[0].start, 1.0);
    EXPECT_DOUBLE_EQ(events[0].duration, 2.0);
}

TEST_F(TracerTest, ChromeExportIsWellFormed)
{
    tracer().setEnabled(true);
    tracer().nameTrack(engineTrack, "engine");
    tracer().completeEvent(engineTrack, "outer", "test", 0.0, 4.0,
                           {arg("x", 1.25), arg("n", "label")});
    tracer().completeEvent(engineTrack, "inner", "test", 1.0, 2.0);
    tracer().instantEvent(rankTrack(3), "tick", "test", 0.5);

    const JsonValue root = parsedTrace();
    const JsonValue *unit = root.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->asString(), "ms");
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool saw_outer = false, saw_instant = false, saw_meta = false;
    for (const auto &e : events->items()) {
        const std::string &ph = e.find("ph")->asString();
        const std::string &name = e.find("name")->asString();
        if (ph == "X" && name == "outer") {
            saw_outer = true;
            EXPECT_DOUBLE_EQ(e.find("ts")->asNumber(), 0.0);
            EXPECT_DOUBLE_EQ(e.find("dur")->asNumber(), 4e6);
            EXPECT_DOUBLE_EQ(
                e.find("args")->find("x")->asNumber(), 1.25);
        } else if (ph == "i" && name == "tick") {
            saw_instant = true;
            EXPECT_DOUBLE_EQ(e.find("pid")->asNumber(), pidRank);
            EXPECT_DOUBLE_EQ(e.find("tid")->asNumber(), 3.0);
            EXPECT_EQ(e.find("s")->asString(), "t");
        } else if (ph == "M" && name == "thread_name") {
            saw_meta = true;
            EXPECT_EQ(e.find("args")->find("name")->asString(),
                      "engine");
        }
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_meta);
}

TEST_F(TracerTest, ExportOrdersEnclosingSpansFirst)
{
    tracer().setEnabled(true);
    // Recorded inner-first: the export must sort the enclosing span
    // ahead of the nested one so Perfetto stacks them correctly.
    tracer().completeEvent(engineTrack, "inner", "test", 1.0, 2.0);
    tracer().completeEvent(engineTrack, "outer", "test", 0.0, 4.0);

    const JsonValue root = parsedTrace();
    std::vector<std::string> span_order;
    for (const auto &e : root.find("traceEvents")->items()) {
        if (e.find("ph")->asString() == "X")
            span_order.push_back(e.find("name")->asString());
    }
    ASSERT_EQ(span_order.size(), 2u);
    EXPECT_EQ(span_order[0], "outer");
    EXPECT_EQ(span_order[1], "inner");
}

TEST_F(TracerTest, TransferEventsRequireARecordingScope)
{
    tracer().setEnabled(true);
    const upmem::TransferModel model{upmem::TransferConfig{}};

    // Outside a RecordingScope: a cost-model probe. No events, no
    // clock movement.
    model.broadcast(4096, 128);
    EXPECT_EQ(tracer().eventCount(), 0u);
    EXPECT_EQ(tracer().now(), 0.0);

    // Inside a scope: one span per touched rank, clock advances.
    {
        RecordingScope scope;
        const Seconds time = model.broadcast(4096, 128);
        EXPECT_GT(time, 0.0);
        EXPECT_DOUBLE_EQ(tracer().now(), time);
    }
    const auto events = tracer().events();
    ASSERT_FALSE(events.empty());
    for (const auto &e : events) {
        EXPECT_EQ(e.track.pid, pidRank);
        EXPECT_EQ(e.name, "broadcast");
    }
}

TEST_F(TracerTest, BfsRunProducesNestedPhaseAndDeviceTracks)
{
    tracer().setEnabled(true);

    Rng rng(7);
    const auto list = sparse::generateScaleMatched(300, 6, 20, rng);
    const auto matrix = sparse::edgeListToSymmetricCoo(list);
    upmem::SystemConfig cfg;
    cfg.numDpus = 8;
    cfg.dpu.tasklets = 4;
    const upmem::UpmemSystem sys(cfg);

    apps::AppConfig app_cfg;
    app_cfg.strategy = core::MxvStrategy::Adaptive;
    const auto result = apps::runBfs(sys, matrix, 0, app_cfg);
    ASSERT_FALSE(result.iterations.empty());

    const auto events = tracer().events();
    ASSERT_FALSE(events.empty());

    // Track layout: engine phases on pid 1, per-rank transfers on
    // pid 2, per-DPU kernels on pid 3.
    bool saw_iteration = false, saw_phase = false;
    bool saw_rank = false, saw_dpu = false;
    for (const auto &e : events) {
        if (e.track.pid == pidEngine &&
            e.name == "bfs.iteration")
            saw_iteration = true;
        if (e.track.pid == pidEngine && e.category == "phase")
            saw_phase = true;
        if (e.track.pid == pidRank)
            saw_rank = true;
        if (e.track.pid == pidDpu) {
            saw_dpu = true;
            EXPECT_LT(e.track.tid, tracer().dpuTrackLimit());
        }
    }
    EXPECT_TRUE(saw_iteration);
    EXPECT_TRUE(saw_phase);
    EXPECT_TRUE(saw_rank);
    EXPECT_TRUE(saw_dpu);

    // Span nesting on the engine track: every phase span must lie
    // inside some multiply span, and every multiply span inside some
    // iteration span (with float tolerance on the boundaries).
    const double eps = 1e-9;
    auto contained = [&](const TraceEvent &in,
                         const std::string &outer_cat) {
        return std::any_of(
            events.begin(), events.end(), [&](const TraceEvent &out) {
                return out.category == outer_cat &&
                       out.track.pid == pidEngine &&
                       out.start <= in.start + eps &&
                       out.start + out.duration + eps >=
                           in.start + in.duration;
            });
    };
    for (const auto &e : events) {
        if (e.track.pid != pidEngine || e.phase != 'X')
            continue;
        if (e.category == "phase") {
            EXPECT_TRUE(contained(e, "multiply")) << e.name;
        }
        if (e.category == "multiply") {
            EXPECT_TRUE(contained(e, "app")) << e.name;
        }
    }

    // The whole export must still parse as JSON.
    parsedTrace();
}

TEST_F(TracerTest, BufferCapDropsAndCountsOverflow)
{
    tracer().setEnabled(true);
    tracer().setBufferLimit(4);
    metrics().setEnabled(true);
    metrics().clear();

    for (int i = 0; i < 10; ++i)
        tracer().completeEvent(engineTrack, "e", "test",
                               static_cast<Seconds>(i), 1.0);
    EXPECT_EQ(tracer().eventCount(), 4u);
    EXPECT_EQ(tracer().droppedEvents(), 6u);
    EXPECT_EQ(metrics().counterValue("trace.dropped_spans"), 6u);

    tracer().clear();
    EXPECT_EQ(tracer().droppedEvents(), 0u);
    tracer().setBufferLimit(1u << 20);
    metrics().clear();
    metrics().setEnabled(false);
}

TEST_F(TracerTest, StreamedTraceIsCompleteAndParseable)
{
    const std::string path =
        testing::TempDir() + "alphapim_stream_trace.json";
    tracer().setEnabled(true);
    tracer().nameTrack(engineTrack, "engine");
    ASSERT_TRUE(tracer().openStream(path));
    EXPECT_TRUE(tracer().streaming());
    // A second sink cannot be opened over the first.
    EXPECT_FALSE(tracer().openStream(path));

    for (int i = 0; i < 64; ++i)
        tracer().completeEvent(engineTrack, "e", "test",
                               static_cast<Seconds>(i), 0.5);
    tracer().instantEvent(rankTrack(1), "tick", "test", 2.0);
    tracer().closeStream();
    EXPECT_FALSE(tracer().streaming());
    // Everything flushed: the buffer is empty, the total remembers.
    EXPECT_EQ(tracer().eventCount(), 0u);
    EXPECT_EQ(tracer().totalEventCount(), 65u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(buf.str(), root, &error)) << error;
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    std::size_t spans = 0, metas = 0;
    for (const auto &e : events->items()) {
        const std::string &ph = e.find("ph")->asString();
        if (ph == "X" || ph == "i")
            ++spans;
        else if (ph == "M")
            ++metas;
    }
    EXPECT_EQ(spans, 65u);
    EXPECT_GE(metas, 2u); // process_name + thread_name at least
    std::remove(path.c_str());
}

TEST_F(TracerTest, EventsSinceReturnsTheRecordedSuffix)
{
    tracer().setEnabled(true);
    tracer().completeEvent(engineTrack, "a", "test", 0.0, 1.0);
    tracer().completeEvent(engineTrack, "b", "test", 1.0, 1.0);
    const std::size_t mark = tracer().totalEventCount();
    EXPECT_EQ(mark, 2u);
    tracer().completeEvent(engineTrack, "c", "test", 2.0, 1.0);
    tracer().completeEvent(engineTrack, "d", "test", 3.0, 1.0);

    const auto suffix = tracer().eventsSince(mark);
    ASSERT_EQ(suffix.size(), 2u);
    EXPECT_EQ(suffix[0].name, "c");
    EXPECT_EQ(suffix[1].name, "d");
    EXPECT_TRUE(tracer().eventsSince(100).empty());
    EXPECT_EQ(tracer().eventsSince(0).size(), 4u);
}

TEST_F(TracerTest, DpuTrackLimitCapsKernelTracks)
{
    tracer().setEnabled(true);
    tracer().setDpuTrackLimit(2);

    Rng rng(11);
    const auto list = sparse::generateScaleMatched(200, 6, 20, rng);
    const auto matrix = sparse::edgeListToSymmetricCoo(list);
    upmem::SystemConfig cfg;
    cfg.numDpus = 8;
    cfg.dpu.tasklets = 4;
    const upmem::UpmemSystem sys(cfg);

    apps::AppConfig app_cfg;
    const auto result = apps::runBfs(sys, matrix, 0, app_cfg);
    ASSERT_FALSE(result.iterations.empty());

    for (const auto &e : tracer().events()) {
        if (e.track.pid == pidDpu) {
            EXPECT_LT(e.track.tid, 2u);
        }
    }
    tracer().setDpuTrackLimit(128);
}
