/**
 * @file
 * Symbolic-execution extraction tests: the capture tap harvests real
 * kernel launches on tiny abstract partitions, extraction
 * deduplicates by fingerprint, and every shipped kernel variant and
 * application proves finding-free under exhaustive exploration --
 * the in-tree mirror of the alphapim_modelcheck CI gate.
 */

#include <gtest/gtest.h>

#include "analysis/modelcheck/explorer.hh"
#include "analysis/modelcheck/extract.hh"

using namespace alphapim;
using namespace alphapim::analysis;
using namespace alphapim::analysis::modelcheck;

namespace
{

/** Explore every extracted skeleton; returns all findings. */
std::vector<Finding>
checkAll(const Extraction &ex, ExploreStats *stats = nullptr)
{
    std::vector<Finding> out = ex.lintFindings;
    for (const ExtractedSkeleton &s : ex.skeletons) {
        const ExploreResult r = explore(s.skeleton);
        EXPECT_TRUE(r.complete) << s.skeleton.subject;
        out.insert(out.end(), r.findings.begin(), r.findings.end());
        if (stats) {
            stats->states += r.stats.states;
            stats->schedules += r.stats.schedules;
        }
    }
    return out;
}

} // namespace

TEST(Extract, KernelYieldsDedupedSkeletons)
{
    const Extraction ex =
        extractKernelSkeletons(core::KernelVariant::SpmspvCsc2d);
    ASSERT_FALSE(ex.skeletons.empty());
    EXPECT_GT(ex.launches, 0u);
    unsigned occurrences = 0;
    for (const ExtractedSkeleton &s : ex.skeletons) {
        EXPECT_FALSE(s.skeleton.tasklets.empty());
        occurrences += s.occurrences;
    }
    EXPECT_EQ(occurrences, ex.dpuPrograms);
    // Distinct fingerprints only.
    for (std::size_t i = 0; i < ex.skeletons.size(); ++i)
        for (std::size_t j = i + 1; j < ex.skeletons.size(); ++j)
            EXPECT_NE(ex.skeletons[i].skeleton.fingerprint(),
                      ex.skeletons[j].skeleton.fingerprint());
}

TEST(Extract, ExtractionIsDeterministic)
{
    const ExtractOptions opts;
    const Extraction a =
        extractKernelSkeletons(core::KernelVariant::SpmspvCoo, opts);
    const Extraction b =
        extractKernelSkeletons(core::KernelVariant::SpmspvCoo, opts);
    ASSERT_EQ(a.skeletons.size(), b.skeletons.size());
    for (std::size_t i = 0; i < a.skeletons.size(); ++i) {
        EXPECT_EQ(a.skeletons[i].skeleton.fingerprint(),
                  b.skeletons[i].skeleton.fingerprint());
        EXPECT_EQ(a.skeletons[i].occurrences,
                  b.skeletons[i].occurrences);
    }
}

TEST(Extract, CaptureTapIsOffAfterExtraction)
{
    // The capture rides on the extraction's own system: launches on
    // any other system still replay and report timing.
    (void)extractKernelSkeletons(core::KernelVariant::SpmspvCoo);
    upmem::SystemConfig cfg;
    cfg.numDpus = 2;
    const upmem::UpmemSystem sys(cfg);
    const upmem::LaunchProfile profile = sys.launchKernel(
        2, [](unsigned, std::vector<upmem::TaskletTrace> &traces) {
            traces[0].ops(upmem::OpClass::IntAdd, 10);
        });
    EXPECT_GT(profile.maxCycles, 0u);
}

TEST(Extract, AllKernelVariantsProveClean)
{
    const core::KernelVariant variants[] = {
        core::KernelVariant::SpmspvCoo,
        core::KernelVariant::SpmspvCsr,
        core::KernelVariant::SpmspvCscR,
        core::KernelVariant::SpmspvCscC,
        core::KernelVariant::SpmspvCsc2d,
        core::KernelVariant::SpmvCoo1d,
        core::KernelVariant::SpmvCooRow1d,
        core::KernelVariant::SpmvCsrRow1d,
        core::KernelVariant::SpmvDcoo2d,
    };
    for (const core::KernelVariant v : variants) {
        const Extraction ex = extractKernelSkeletons(v);
        const std::vector<Finding> findings = checkAll(ex);
        EXPECT_TRUE(findings.empty())
            << core::kernelVariantName(v) << ": "
            << (findings.empty() ? "" : findings[0].detail);
    }
}

TEST(Extract, AllAppsProveCleanUnderEveryStrategy)
{
    const core::MxvStrategy strategies[] = {
        core::MxvStrategy::Adaptive,
        core::MxvStrategy::CostModel,
        core::MxvStrategy::SpmspvOnly,
        core::MxvStrategy::SpmvOnly,
    };
    for (const std::string &app : knownApps()) {
        for (const core::MxvStrategy s : strategies) {
            const Extraction ex = extractAppSkeletons(app, s);
            ASSERT_FALSE(ex.skeletons.empty())
                << app << "/" << core::mxvStrategyName(s);
            const std::vector<Finding> findings = checkAll(ex);
            EXPECT_TRUE(findings.empty())
                << app << "/" << core::mxvStrategyName(s) << ": "
                << (findings.empty() ? "" : findings[0].detail);
        }
    }
}

TEST(Extract, DporReductionLoggedOnRealKernel)
{
    // The acceptance gate's reduction measurement in miniature: on a
    // real kernel's skeletons, sleep sets must explore strictly fewer
    // states than naive enumeration while agreeing on cleanliness.
    const Extraction ex =
        extractKernelSkeletons(core::KernelVariant::SpmspvCsc2d);
    std::uint64_t reduced = 0;
    std::uint64_t naive = 0;
    for (const ExtractedSkeleton &s : ex.skeletons) {
        ExploreOptions opts;
        const ExploreResult r1 = explore(s.skeleton, opts);
        opts.reduction = false;
        opts.maxStates = 1u << 16; // naive may exceed: lower bound
        const ExploreResult r2 = explore(s.skeleton, opts);
        EXPECT_TRUE(r1.complete);
        EXPECT_TRUE(r1.findings.empty());
        reduced += r1.stats.states;
        naive += r2.stats.states;
    }
    EXPECT_LT(reduced, naive);
}
