/**
 * @file
 * Answer digests for the thread-count invariance gate
 * (cmake/RunThreadInvarianceTest.cmake). Prints the worker-thread
 * limit, then an FNV-1a 64 digest of the bit patterns of each answer
 * below, every one computed twice in this process:
 *  - PPR through PimEngine (e-En at scale 0.2, 256 DPUs, source 1,
 *    8 iterations), spmv-only (DCOO-2D) and spmspv-only (CSC-2D);
 *  - one PlusTimes multiply on CSC-C and one on COO.nnz, the other
 *    variants whose DPUs share output rows.
 *
 * Floating-point addition is not associative, so the digests only
 * agree across ALPHA_PIM_THREADS settings when the per-DPU partial
 * outputs are combined in an order that does not depend on the
 * thread count.
 *
 *   answer_digest    (honours ALPHA_PIM_THREADS)
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/graph_apps.hh"
#include "apps/reference_algorithms.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "core/kernels.hh"
#include "sparse/datasets.hh"

using namespace alphapim;

namespace
{

constexpr unsigned kDpus = 256;

std::uint64_t
fnv1a(const std::vector<float> &values)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const float v : values) {
        unsigned char bytes[sizeof(float)];
        std::memcpy(bytes, &v, sizeof(float));
        for (const unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

void
print(const char *what, int run, const std::vector<float> &answer)
{
    std::printf("%-16s run %d %016llx\n", what, run,
                static_cast<unsigned long long>(fnv1a(answer)));
}

} // namespace

int
main()
{
    std::printf("threads %u\n", parallelMaxThreads());

    upmem::SystemConfig cfg;
    cfg.numDpus = kDpus;
    const upmem::UpmemSystem sys(cfg);
    const auto graph = sparse::buildDataset("e-En", 0.2);
    const auto &a = graph.adjacency;

    apps::AppConfig ppr;
    ppr.dpus = kDpus;
    ppr.pprIterations = 8;
    ppr.pprTolerance = 0.0;
    for (const auto &[name, strategy] :
         {std::pair{"ppr/spmv_only", core::MxvStrategy::SpmvOnly},
          std::pair{"ppr/spmspv_only", core::MxvStrategy::SpmspvOnly}}) {
        ppr.strategy = strategy;
        for (int run = 0; run < 2; ++run)
            print(name, run, apps::runPpr(sys, a, 1, ppr).ranks);
    }

    // A half-dense input with distinct values, so every output row
    // sums many differently rounded products.
    const auto a_norm = apps::normalizeColumns(a);
    Rng rng(7);
    sparse::SparseVector<float> x(a_norm.numRows());
    for (NodeId v = 0; v < a_norm.numRows(); ++v) {
        if (rng.nextBernoulli(0.5))
            x.append(v, static_cast<float>(rng.nextDouble()));
    }
    for (const auto variant :
         {core::KernelVariant::SpmspvCscC, core::KernelVariant::SpmvCoo1d}) {
        const auto kernel =
            core::makeKernel<core::PlusTimes>(variant, sys, a_norm, kDpus);
        for (int run = 0; run < 2; ++run)
            print(core::kernelVariantName(variant), run, kernel->run(x).y);
    }
    return 0;
}
