#include "analysis/modelcheck/extract.hh"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "analysis/capture.hh"
#include "apps/graph_apps.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sparse/generators.hh"

namespace alphapim::analysis::modelcheck
{

namespace
{

upmem::SystemConfig
smallConfig(const ExtractOptions &o)
{
    upmem::SystemConfig cfg;
    cfg.numDpus = o.dpus;
    cfg.dpu.tasklets = o.tasklets;
    return cfg;
}

sparse::CooMatrix<float>
tinyGraph(const ExtractOptions &o, bool weighted)
{
    Rng rng(o.seed);
    const sparse::EdgeList list =
        sparse::generateErdosRenyi(o.vertices, o.edges, rng);
    sparse::CooMatrix<float> a = sparse::edgeListToSymmetricCoo(list);
    if (weighted)
        a = sparse::assignSymmetricWeights(a, 1.0f, 8.0f, rng);
    return a;
}

/** Half-full input vector for direct kernel runs. */
template <typename T>
sparse::SparseVector<T>
tinyVector(NodeId dim, double density)
{
    sparse::SparseVector<T> x(dim);
    const double step = density > 0 ? 1.0 / density : dim + 1.0;
    for (double i = 0; i < dim; i += step)
        x.append(static_cast<NodeId>(i), static_cast<T>(1));
    return x;
}

/** Fold captured launches into deduplicated skeletons + lint. */
void
foldLaunches(Extraction &out,
             const std::vector<CapturedLaunch> &launches,
             const upmem::DpuConfig &cfg, const std::string &subject)
{
    std::unordered_map<std::uint64_t, std::size_t> byFingerprint;
    for (const CapturedLaunch &launch : launches) {
        const unsigned l = out.launches++;
        for (unsigned dpu = 0; dpu < launch.dpuTraces.size(); ++dpu) {
            SkeletonBuild build = buildSkeleton(
                dpu, launch.dpuTraces[dpu], cfg,
                subject + " launch " + std::to_string(l) + " dpu " +
                    std::to_string(dpu));
            out.lintFindings.insert(
                out.lintFindings.end(),
                std::make_move_iterator(build.lintFindings.begin()),
                std::make_move_iterator(build.lintFindings.end()));
            if (build.skeleton.tasklets.empty())
                continue; // this DPU had no work in this launch
            ++out.dpuPrograms;
            const std::uint64_t fp = build.skeleton.fingerprint();
            const auto it = byFingerprint.find(fp);
            if (it != byFingerprint.end()) {
                ++out.skeletons[it->second].occurrences;
                continue;
            }
            byFingerprint.emplace(fp, out.skeletons.size());
            out.skeletons.push_back({std::move(build.skeleton), 1});
        }
    }
    std::sort(out.lintFindings.begin(), out.lintFindings.end(),
              findingLess);
    out.lintFindings.erase(
        std::unique(out.lintFindings.begin(), out.lintFindings.end(),
                    findingEquals),
        out.lintFindings.end());
}

/** Run `subject` on a tiny system with a trace capture attached and
 * fold what it launched. */
template <typename Fn>
Extraction
captureSubject(const ExtractOptions &opts, const std::string &subject,
               Fn &&run)
{
    const auto capture = std::make_shared<TraceCapture>();
    const upmem::UpmemSystem sys(smallConfig(opts), {capture});
    run(sys);
    Extraction out;
    foldLaunches(out, capture->take(), sys.config().dpu, subject);
    return out;
}

} // namespace

Extraction
extractKernelSkeletons(core::KernelVariant variant,
                       const ExtractOptions &opts)
{
    const sparse::CooMatrix<float> a = tinyGraph(opts, false);
    const auto x = tinyVector<core::IntPlusTimes::Value>(
        a.numRows(), opts.xDensity);
    return captureSubject(
        opts, core::kernelVariantName(variant),
        [&](const upmem::UpmemSystem &sys) {
            (void)core::makeKernel<core::IntPlusTimes>(variant, sys, a,
                                                      opts.dpus)
                ->run(x);
        });
}

const std::vector<std::string> &
knownApps()
{
    static const std::vector<std::string> apps = {"bfs", "sssp", "ppr",
                                                  "cc"};
    return apps;
}

Extraction
extractAppSkeletons(const std::string &app,
                    core::MxvStrategy strategy,
                    const ExtractOptions &opts)
{
    const sparse::CooMatrix<float> a = tinyGraph(opts, app == "sssp");
    apps::AppConfig cfg;
    cfg.strategy = strategy;
    cfg.dpus = opts.dpus;
    const std::string subject =
        app + "/" + core::mxvStrategyName(strategy);
    using System = upmem::UpmemSystem;
    if (app == "bfs") {
        return captureSubject(opts, subject, [&](const System &sys) {
            (void)apps::runBfs(sys, a, 0, cfg);
        });
    }
    if (app == "sssp") {
        return captureSubject(opts, subject, [&](const System &sys) {
            (void)apps::runSssp(sys, a, 0, cfg);
        });
    }
    if (app == "ppr") {
        return captureSubject(opts, subject, [&](const System &sys) {
            (void)apps::runPpr(sys, a, 0, cfg);
        });
    }
    if (app == "cc") {
        return captureSubject(opts, subject, [&](const System &sys) {
            (void)apps::runConnectedComponents(sys, a, cfg);
        });
    }
    fatal("unknown application '%s' (expected bfs/sssp/ppr/cc)",
          app.c_str());
}

} // namespace alphapim::analysis::modelcheck
