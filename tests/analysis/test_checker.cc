/**
 * @file
 * pim-verify unit tests: each seeded defect class produces exactly
 * the expected finding kind, clean synchronization produces none,
 * and the JSON report round-trips.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/checker.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "upmem/tasklet_ctx.hh"

using namespace alphapim;
using namespace alphapim::analysis;
using namespace alphapim::upmem;

namespace
{

std::uint64_t
countOf(const AnalysisReport &r, FindingKind k)
{
    return r.counts[static_cast<unsigned>(k)];
}

/** True when `r` contains only findings of kind `k` (and at least
 * one of them). */
::testing::AssertionResult
onlyKind(const AnalysisReport &r, FindingKind k)
{
    if (countOf(r, k) == 0) {
        return ::testing::AssertionFailure()
               << "no " << findingKindName(k) << " finding";
    }
    if (r.total() != countOf(r, k)) {
        std::ostringstream os;
        for (const auto &f : r.findings)
            os << "\n  " << describeFinding(f);
        return ::testing::AssertionFailure()
               << "unexpected extra findings:" << os.str();
    }
    return ::testing::AssertionSuccess();
}

} // namespace

/** Fresh, fully-enabled checker per test. */
class CheckerTest : public ::testing::Test
{
  protected:
    TraceChecker c;
    DpuConfig cfg;
};

TEST(Checker, DisabledIsNoOp)
{
    TraceChecker c(CheckOptions{false, false, false, false});
    DpuConfig cfg;
    std::vector<TaskletTrace> traces(2);
    traces[0].dmaRead(12); // would be illegal
    c.analyzeDpu(0, traces, cfg);
    EXPECT_EQ(c.findingCount(), 0u);
    EXPECT_EQ(c.report().dpusChecked, 0u);
}

TEST_F(CheckerTest, SeededWramRaceIsDetected)
{
    std::vector<TaskletTrace> traces(2);
    traces[0].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
    traces[1].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
    c.analyzeDpu(0, traces, cfg);

    const auto rep = c.report();
    EXPECT_TRUE(onlyKind(rep, FindingKind::DataRace));
    ASSERT_FALSE(rep.findings.empty());
    EXPECT_EQ(rep.findings[0].space, MemSpace::Wram);
    EXPECT_EQ(rep.findings[0].addr, 0x4000u);
}

TEST_F(CheckerTest, SeededMramRaceIsDetected)
{
    std::vector<TaskletTrace> traces(2);
    traces[0].dmaWrite(16, 0x100); // [0x100, 0x110)
    traces[1].dmaRead(8, 0x108);   // overlaps the write
    c.analyzeDpu(0, traces, cfg);
    EXPECT_TRUE(onlyKind(c.report(), FindingKind::DataRace));
}

TEST_F(CheckerTest, CommonLockPreventsRace)
{
    std::vector<TaskletTrace> traces(2);
    for (auto &t : traces) {
        t.mutexLock(1);
        t.wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
        t.mutexUnlock(1);
    }
    c.analyzeDpu(0, traces, cfg);
    EXPECT_EQ(c.findingCount(), 0u);
}

TEST_F(CheckerTest, DisjointLocksDoNotPreventRace)
{
    std::vector<TaskletTrace> traces(2);
    for (unsigned t = 0; t < 2; ++t) {
        traces[t].mutexLock(t); // different mutex per tasklet
        traces[t].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
        traces[t].mutexUnlock(t);
    }
    c.analyzeDpu(0, traces, cfg);
    EXPECT_TRUE(onlyKind(c.report(), FindingKind::DataRace));
}

TEST_F(CheckerTest, BarrierOrdersAccessesAcrossRounds)
{
    std::vector<TaskletTrace> traces(2);
    // t0 writes before the barrier, t1 after it: happens-before.
    traces[0].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
    traces[0].barrier(0);
    traces[1].barrier(0);
    traces[1].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
    c.analyzeDpu(0, traces, cfg);
    EXPECT_EQ(c.findingCount(), 0u);
}

TEST_F(CheckerTest, ConcurrentReadsDoNotRace)
{
    std::vector<TaskletTrace> traces(2);
    traces[0].wramAccess(OpClass::LoadWram, 1, 0x4000, 4);
    traces[1].wramAccess(OpClass::LoadWram, 1, 0x4000, 4);
    c.analyzeDpu(0, traces, cfg);
    EXPECT_EQ(c.findingCount(), 0u);
}

TEST_F(CheckerTest, SpacesAreDistinct)
{
    std::vector<TaskletTrace> traces(2);
    // Same numeric address in WRAM and MRAM: not a conflict.
    traces[0].wramAccess(OpClass::StoreWram, 1, 0x4000, 8);
    traces[1].dmaWrite(8, 0x4000);
    c.analyzeDpu(0, traces, cfg);
    EXPECT_EQ(c.findingCount(), 0u);
}

TEST_F(CheckerTest, DoubleLockIsDetected)
{
    std::vector<TaskletTrace> traces(1);
    traces[0].mutexLock(3);
    traces[0].mutexLock(3);
    traces[0].mutexUnlock(3);
    c.analyzeDpu(0, traces, cfg);
    const auto rep = c.report();
    EXPECT_TRUE(onlyKind(rep, FindingKind::DoubleLock));
    ASSERT_FALSE(rep.findings.empty());
    EXPECT_EQ(rep.findings[0].id, 3u);
}

TEST_F(CheckerTest, UnlockUnheldIsDetected)
{
    std::vector<TaskletTrace> traces(1);
    traces[0].mutexUnlock(5);
    c.analyzeDpu(0, traces, cfg);
    EXPECT_TRUE(onlyKind(c.report(), FindingKind::UnlockUnheld));
}

TEST_F(CheckerTest, LockHeldAtExitIsDetected)
{
    std::vector<TaskletTrace> traces(1);
    traces[0].mutexLock(7);
    c.analyzeDpu(0, traces, cfg);
    EXPECT_TRUE(onlyKind(c.report(), FindingKind::LockHeldAtExit));
}

TEST_F(CheckerTest, LockOrderCycleIsDetected)
{
    std::vector<TaskletTrace> traces(2);
    traces[0].mutexLock(1);
    traces[0].mutexLock(2);
    traces[0].mutexUnlock(2);
    traces[0].mutexUnlock(1);
    traces[1].mutexLock(2);
    traces[1].mutexLock(1);
    traces[1].mutexUnlock(1);
    traces[1].mutexUnlock(2);
    c.analyzeDpu(0, traces, cfg);
    EXPECT_TRUE(onlyKind(c.report(), FindingKind::LockOrderCycle));
}

TEST_F(CheckerTest, ConsistentLockOrderHasNoCycle)
{
    std::vector<TaskletTrace> traces(2);
    for (auto &t : traces) {
        t.mutexLock(1);
        t.mutexLock(2);
        t.mutexUnlock(2);
        t.mutexUnlock(1);
    }
    c.analyzeDpu(0, traces, cfg);
    EXPECT_EQ(c.findingCount(), 0u);
}

TEST_F(CheckerTest, BarrierDivergenceIsDetected)
{
    std::vector<TaskletTrace> traces(3);
    traces[0].barrier(0);
    traces[0].barrier(0);
    traces[1].barrier(0);
    // traces[2] stays empty: exempt, like the replay scheduler.
    c.analyzeDpu(0, traces, cfg);
    EXPECT_TRUE(
        onlyKind(c.report(), FindingKind::BarrierDivergence));
}

TEST_F(CheckerTest, IllegalDmaSizesAreDetected)
{
    std::vector<TaskletTrace> traces(1);
    traces[0].dmaRead(12);   // granularity violation
    traces[0].dmaWrite(0);   // zero length
    traces[0].dmaRead(3000); // above the hardware maximum
    c.analyzeDpu(0, traces, cfg);
    const auto rep = c.report();
    EXPECT_TRUE(onlyKind(rep, FindingKind::IllegalDma));
    EXPECT_EQ(countOf(rep, FindingKind::IllegalDma), 3u);
}

TEST_F(CheckerTest, StagingOverflowIsDetected)
{
    cfg.wramChunkBytes = 64;
    std::vector<TaskletTrace> traces(1);
    traces[0].dmaRead(128); // legal size, but > staging buffer
    c.analyzeDpu(0, traces, cfg);
    EXPECT_TRUE(onlyKind(c.report(), FindingKind::IllegalDma));
}

TEST_F(CheckerTest, MisalignedDmaAddressIsDetected)
{
    std::vector<TaskletTrace> traces(1);
    traces[0].dmaRead(8, 0x104 + 2); // size fine, address not
    c.analyzeDpu(0, traces, cfg);
    EXPECT_TRUE(onlyKind(c.report(), FindingKind::IllegalDma));
}

TEST(Checker, FamilySelectionIsHonoured)
{
    CheckOptions sel;
    ASSERT_TRUE(CheckOptions::parseList("race,lock", sel));
    TraceChecker c(sel);
    DpuConfig cfg;
    std::vector<TaskletTrace> traces(1);
    traces[0].dmaRead(12); // illegal, but dma checks are off
    c.analyzeDpu(0, traces, cfg);
    EXPECT_EQ(c.findingCount(), 0u);
}

TEST(Checker, ParseListVariants)
{
    CheckOptions sel;
    EXPECT_TRUE(CheckOptions::parseList("", sel));
    EXPECT_TRUE(sel.race && sel.lock && sel.barrier && sel.dma);

    EXPECT_TRUE(CheckOptions::parseList("dma", sel));
    EXPECT_TRUE(sel.dma);
    EXPECT_FALSE(sel.race || sel.lock || sel.barrier);

    EXPECT_TRUE(CheckOptions::parseList("race,barrier", sel));
    EXPECT_TRUE(sel.race && sel.barrier);
    EXPECT_FALSE(sel.lock || sel.dma);

    std::string error;
    EXPECT_FALSE(CheckOptions::parseList("bogus", sel, &error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(Checker, MetricsCountersAreRecorded)
{
    auto &m = telemetry::metrics();
    m.clear();
    m.setEnabled(true);
    {
        TraceChecker c;
        DpuConfig cfg;
        std::vector<TaskletTrace> traces(1);
        traces[0].mutexUnlock(9);
        c.analyzeDpu(0, traces, cfg);
    }
    EXPECT_EQ(m.counterValue("analysis.dpus_checked"), 1u);
    EXPECT_EQ(m.counterValue("analysis.findings"), 1u);
    EXPECT_EQ(m.counterValue("analysis.findings.unlock_unheld"), 1u);
    m.setEnabled(false);
    m.clear();
}

TEST_F(CheckerTest, JsonReportRoundTrips)
{
    std::vector<TaskletTrace> traces(2);
    traces[0].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
    traces[1].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
    c.analyzeDpu(3, traces, cfg);

    const std::string path =
        ::testing::TempDir() + "pim_verify_report.json";
    ASSERT_TRUE(c.writeReport(path));

    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    telemetry::JsonValue doc;
    std::string error;
    ASSERT_TRUE(telemetry::JsonValue::parse(buf.str(), doc, &error))
        << error;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("schema")->asString(),
              "alpha-pim-analysis-v1");
    EXPECT_EQ(doc.find("dpus_checked")->asNumber(), 1.0);
    EXPECT_GE(doc.find("total_findings")->asNumber(), 1.0);
    const auto *findings = doc.find("findings");
    ASSERT_TRUE(findings != nullptr && findings->isArray());
    ASSERT_FALSE(findings->items().empty());
    const auto &first = findings->items()[0];
    EXPECT_EQ(first.find("kind")->asString(), "data_race");
    EXPECT_EQ(first.find("dpu")->asNumber(), 3.0);
    const auto *counts = doc.find("counts");
    ASSERT_TRUE(counts != nullptr && counts->isObject());
    EXPECT_GE(counts->find("data_race")->asNumber(), 1.0);
}

TEST_F(CheckerTest, RepeatedFindingsAreDedupedButCounted)
{
    std::vector<TaskletTrace> traces(1);
    traces[0].mutexUnlock(4);
    // The same defect on the same DPU, analyzed twice (as a bench
    // binary re-running a configuration would): one retained finding,
    // two counted occurrences.
    c.analyzeDpu(0, traces, cfg);
    c.analyzeDpu(0, traces, cfg);
    const auto rep = c.report();
    EXPECT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(countOf(rep, FindingKind::UnlockUnheld), 2u);
    EXPECT_EQ(rep.total(), 2u);
}

TEST_F(CheckerTest, FindingsAreSortedDeterministically)
{
    // Feed DPUs in descending order with mixed kinds; the report must
    // come out in (kind, dpu, tasklet, addr) order regardless.
    for (const unsigned dpu : {5u, 1u, 3u}) {
        std::vector<TaskletTrace> traces(2);
        traces[0].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
        traces[1].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
        traces[1].mutexUnlock(2);
        c.analyzeDpu(dpu, traces, cfg);
    }
    const auto rep = c.report();
    ASSERT_GE(rep.findings.size(), 2u);
    for (std::size_t i = 1; i < rep.findings.size(); ++i) {
        EXPECT_FALSE(
            findingLess(rep.findings[i], rep.findings[i - 1]));
        EXPECT_FALSE(
            findingEquals(rep.findings[i - 1], rep.findings[i]));
    }
    // Byte-stable report: a second checker fed the same defects in a
    // different DPU order renders the identical JSON document.
    TraceChecker c2;
    for (const unsigned dpu : {1u, 3u, 5u}) {
        std::vector<TaskletTrace> traces(2);
        traces[0].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
        traces[1].wramAccess(OpClass::StoreWram, 1, 0x4000, 4);
        traces[1].mutexUnlock(2);
        c2.analyzeDpu(dpu, traces, cfg);
    }
    EXPECT_EQ(c.reportJson(), c2.reportJson());
}

TEST_F(CheckerTest, InjectedFindingIsCountedAndDeduped)
{
    Finding f;
    f.kind = FindingKind::DataRace;
    f.dpu = 2;
    f.tasklet = 1;
    f.detail = "synthetic";
    c.injectFinding(f);
    c.injectFinding(f); // identical: counted, not re-retained
    const auto rep = c.report();
    EXPECT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(countOf(rep, FindingKind::DataRace), 2u);
    EXPECT_EQ(rep.findings[0].detail, "synthetic");
}

TEST_F(CheckerTest, ClearResetsAccumulation)
{
    std::vector<TaskletTrace> traces(1);
    traces[0].mutexUnlock(1);
    c.analyzeDpu(0, traces, cfg);
    EXPECT_GT(c.findingCount(), 0u);
    c.clear();
    EXPECT_EQ(c.findingCount(), 0u);
    EXPECT_EQ(c.report().dpusChecked, 0u);
}
