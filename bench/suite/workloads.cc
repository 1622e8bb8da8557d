#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "apps/reference_algorithms.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "serve/loadgen.hh"
#include "sparse/datasets.hh"
#include "sparse/generators.hh"
#include "sparse/graph_stats.hh"
#include "sparse/stats_cache.hh"
#include "suite.hh"
#include "telemetry/host_prof.hh"
#include "telemetry/metrics.hh"

namespace alphapim::suite
{

bool
verifyBfs(const sparse::CooMatrix<float> &adjacency, NodeId source,
          const std::vector<std::uint32_t> &levels)
{
    return levels == apps::referenceBfs(adjacency, source);
}

bool
verifySssp(const sparse::CooMatrix<float> &weighted, NodeId source,
           const std::vector<float> &distances)
{
    return closeTo(distances, apps::referenceSssp(weighted, source));
}

bool
verifyPpr(const sparse::CooMatrix<float> &adjacency, NodeId source,
          const apps::AppConfig &config, const std::vector<float> &ranks)
{
    return closeTo(ranks,
                   apps::referencePpr(adjacency, source, config.pprAlpha,
                                      config.pprIterations));
}

bool
verifyCc(const sparse::CooMatrix<float> &adjacency,
         const std::vector<std::uint32_t> &labels)
{
    return labels == apps::referenceComponents(adjacency);
}

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * How far a repeated PPR answer may drift from the warm-up's. The 2-D
 * kernels fold per-DPU partial sums into the output in the order the
 * worker threads finish, so (+, x) results differ in their last bits
 * from run to run when more than one thread simulates; or/and and min
 * folds are exact in any order. Model times are unaffected.
 */
constexpr float kRepeatTolerance = 1e-5f;

bool
samePhases(const core::PhaseTimes &a, const core::PhaseTimes &b)
{
    return a.load == b.load && a.kernel == b.kernel &&
           a.retrieve == b.retrieve && a.merge == b.merge;
}

/** Serving outcome of one round, on the model clock. */
struct ServeRound
{
    double qps = 0.0;
    double p50 = 0.0; ///< query latency, model seconds
    double p95 = 0.0;
    double sloFraction = 0.0;
    std::uint64_t batches = 0;
    double meanBatch = 0.0;
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t rejects = 0;
};

/** What one round did. */
struct RoundResult
{
    double wall = 0.0;            ///< host seconds, verification excluded
    core::PhaseTimes model;       ///< modeled Load/Kernel/Retrieve/Merge
    std::uint64_t runs = 0;       ///< app-layer calls (serve: batches)
    std::uint64_t iterations = 0; ///< matrix-vector iterations
    ServeRound serve;             ///< serve_mix only
};

/** A workload: inputs and resident state built by setup(), then one
 * fixed round of ops run again and again. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input and resident structure from scratch. */
    virtual void setup(SpanLog &spans) = 0;

    /** Run the round once. The warm-up round checks every answer
     * against the host reference and remembers it; later rounds must
     * reproduce answers (PPR within kRepeatTolerance) and model times
     * exactly. */
    virtual RoundResult round(SpanLog &spans, Tally &tally,
                              bool warmup) = 0;
};

std::unique_ptr<upmem::UpmemSystem>
makeSystem(unsigned dpus)
{
    upmem::SystemConfig cfg;
    cfg.numDpus = dpus;
    return std::make_unique<upmem::UpmemSystem>(cfg);
}

/** One generated graph of a workload. */
struct GraphSpec
{
    const char *abbreviation;
    double scale;     ///< sparse::buildDataset generation scale
    unsigned sources; ///< traversal sources per graph
};

/** Generation scale that brings a dataset to about `edges` edges. */
double
scaleForEdges(const char *abbreviation, double edges)
{
    return std::min(
        1.0, edges / static_cast<double>(
                         sparse::findSpec(abbreviation).edges));
}

/** The vertices of the largest connected component, ascending. */
std::vector<NodeId>
largestComponent(const sparse::CooMatrix<float> &adjacency)
{
    const std::vector<bool> reach = sparse::reachableFrom(
        adjacency, sparse::largestComponentVertex(adjacency));
    std::vector<NodeId> members;
    for (NodeId v = 0; v < reach.size(); ++v) {
        if (reach[v])
            members.push_back(v);
    }
    return members;
}

/**
 * `count` seeded sources in the largest component, stratified by BFS
 * depth: draw candidates, sort them by how deep a traversal from each
 * goes, and take evenly spaced quantiles. Traversal work grows with
 * depth -- on a road lattice a corner vertex goes twice as deep as a
 * central one -- so this keeps a round's work nearly the same from
 * seed to seed while the seed still picks the vertices.
 */
std::vector<NodeId>
pickSources(const sparse::CooMatrix<float> &adjacency, unsigned count,
            std::uint64_t seed)
{
    const std::vector<NodeId> members = largestComponent(adjacency);
    Rng rng(seed);
    const unsigned draws = std::max(64u, 32 * count);
    std::vector<std::pair<std::uint32_t, NodeId>> by_depth;
    for (unsigned i = 0; i < draws; ++i) {
        const NodeId v = members[rng.nextBounded(members.size())];
        std::uint32_t depth = 0;
        for (const std::uint32_t level : apps::referenceBfs(adjacency, v)) {
            if (level != invalidNode)
                depth = std::max(depth, level);
        }
        by_depth.emplace_back(depth, v);
    }
    std::sort(by_depth.begin(), by_depth.end());
    std::vector<NodeId> sources;
    for (unsigned i = 0; i < count; ++i)
        sources.push_back(by_depth[(2 * i + 1) * draws / (2 * count)].second);
    return sources;
}

enum class Algo
{
    Bfs,
    Sssp,
    Ppr,
};

/** A sweep of application runs over resident engines. */
struct AppsConfig
{
    std::vector<GraphSpec> graphs;
    std::vector<Algo> algos;
    std::vector<core::MxvStrategy> strategies;
    unsigned dpus = 0;
    apps::AppConfig app;
};

/** fig07_sweep, road_traverse and dense_ppr: every (graph, strategy,
 * algorithm, source) combination once per round, through the
 * apps::*WithEngine calls over engines built in setup. */
class AppsWorkload final : public Workload
{
  public:
    AppsWorkload(AppsConfig config, std::uint64_t seed)
        : cfg_(std::move(config)), seed_(seed)
    {
    }

    void
    setup(SpanLog &spans) override
    {
        graphs_.clear();
        expected_.clear();
        sys_ = makeSystem(cfg_.dpus);
        for (std::size_t g = 0; g < cfg_.graphs.size(); ++g) {
            const GraphSpec &spec = cfg_.graphs[g];
            Graph &graph = graphs_.emplace_back();
            {
                ScopedSpan span(spans, "generate", g);
                graph.adjacency = sparse::buildDataset(spec.abbreviation,
                                                       spec.scale, seed_)
                                      .adjacency;
                if (uses(Algo::Sssp)) {
                    Rng rng(seed_ + g);
                    graph.weighted = sparse::assignSymmetricWeights(
                        graph.adjacency, 1.0f, 64.0f, rng);
                }
                if (uses(Algo::Ppr))
                    graph.normalized =
                        apps::normalizeColumns(graph.adjacency);
            }
            {
                ScopedSpan span(spans, "stats", g);
                graph.sources =
                    pickSources(graph.adjacency, spec.sources, seed_ + g);
                // Warm the stats cache for every matrix an engine
                // selects its switch threshold from.
                if (uses(Algo::Bfs))
                    sparse::cachedGraphStats(graph.adjacency);
                if (uses(Algo::Sssp))
                    sparse::cachedGraphStats(graph.weighted);
                if (uses(Algo::Ppr))
                    sparse::cachedGraphStats(graph.normalized);
            }
            for (const core::MxvStrategy strategy : cfg_.strategies) {
                ScopedSpan span(spans, "engine_build", g);
                Engines &e = graph.engines.emplace_back();
                if (uses(Algo::Bfs))
                    e.bfs = std::make_unique<
                        core::PimEngine<core::BoolOrAnd>>(
                        *sys_, graph.adjacency, cfg_.dpus, strategy);
                if (uses(Algo::Sssp))
                    e.sssp =
                        std::make_unique<core::PimEngine<core::MinPlus>>(
                            *sys_, graph.weighted, cfg_.dpus, strategy);
                if (uses(Algo::Ppr))
                    e.ppr = std::make_unique<
                        core::PimEngine<core::PlusTimes>>(
                        *sys_, graph.normalized, cfg_.dpus, strategy);
            }
        }
    }

    RoundResult
    round(SpanLog &spans, Tally &tally, bool warmup) override
    {
        RoundResult r;
        std::uint64_t op = 0;
        for (Graph &graph : graphs_) {
            for (Engines &engines : graph.engines) {
                for (const Algo algo : cfg_.algos) {
                    for (const NodeId source : graph.sources) {
                        apps::AppResult res;
                        const auto t0 = Clock::now();
                        {
                            ScopedSpan span(spans, "app_run", op);
                            res = run(engines, algo, source);
                        }
                        r.wall += secondsSince(t0);
                        r.model += res.total;
                        r.iterations += res.iterations.size();
                        ++r.runs;
                        ScopedSpan span(spans, "verify", op);
                        tally.check(
                            verify(graph, algo, source, res, op, warmup));
                        ++op;
                    }
                }
            }
        }
        return r;
    }

  private:
    struct Engines
    {
        std::unique_ptr<core::PimEngine<core::BoolOrAnd>> bfs;
        std::unique_ptr<core::PimEngine<core::MinPlus>> sssp;
        std::unique_ptr<core::PimEngine<core::PlusTimes>> ppr;
    };

    struct Graph
    {
        sparse::CooMatrix<float> adjacency;
        sparse::CooMatrix<float> weighted;   ///< SSSP's matrix
        sparse::CooMatrix<float> normalized; ///< PPR's matrix
        std::vector<NodeId> sources;
        std::vector<Engines> engines; ///< one per strategy
    };

    /** The warm-up round's verified answer and model time of one op. */
    struct Expected
    {
        std::uint64_t checksum = 0; ///< BFS and SSSP answers
        std::vector<float> ranks;   ///< PPR answers
        core::PhaseTimes model;
    };

    bool
    uses(Algo algo) const
    {
        return std::find(cfg_.algos.begin(), cfg_.algos.end(), algo) !=
               cfg_.algos.end();
    }

    apps::AppResult
    run(Engines &e, Algo algo, NodeId source) const
    {
        switch (algo) {
          case Algo::Bfs:
            return apps::bfsWithEngine(*sys_, *e.bfs, source, cfg_.app);
          case Algo::Sssp:
            return apps::ssspWithEngine(*sys_, *e.sssp, source, cfg_.app);
          case Algo::Ppr:
            return apps::pprWithEngine(*sys_, *e.ppr, source, cfg_.app);
        }
        return {};
    }

    bool
    verify(const Graph &graph, Algo algo, NodeId source,
           const apps::AppResult &res, std::uint64_t op, bool warmup)
    {
        const std::uint64_t checksum = algo == Algo::Bfs
                                           ? fnv1a(res.levels)
                                           : fnv1a(res.distances);
        if (!warmup) {
            const Expected &e = expected_.at(op);
            const bool same = algo == Algo::Ppr
                                  ? closeTo(res.ranks, e.ranks,
                                            kRepeatTolerance)
                                  : checksum == e.checksum;
            return same && samePhases(res.total, e.model);
        }
        expected_.push_back(
            {checksum, algo == Algo::Ppr ? res.ranks : std::vector<float>{},
             res.total});
        switch (algo) {
          case Algo::Bfs:
            return verifyBfs(graph.adjacency, source, res.levels);
          case Algo::Sssp:
            return verifySssp(graph.weighted, source, res.distances);
          case Algo::Ppr:
            return verifyPpr(graph.adjacency, source, cfg_.app, res.ranks);
        }
        return false;
    }

    AppsConfig cfg_;
    std::uint64_t seed_;
    std::unique_ptr<upmem::UpmemSystem> sys_;
    std::vector<Graph> graphs_;
    std::vector<Expected> expected_; ///< indexed by op
};

/** Open-loop mixed serving traffic over resident datasets. */
struct ServeConfig
{
    std::vector<GraphSpec> graphs; ///< resident datasets
    unsigned dpus = 0;
    unsigned queries = 0; ///< per round, over all datasets
    double rate = 0.0;    ///< arrivals per model second, all datasets
};

/** The serving mix: 4 bfs : 2 sssp : 1 ppr : 1 cc. */
constexpr struct
{
    serve::ServeAlgo algo;
    unsigned weight;
} kServeMix[] = {{serve::ServeAlgo::Bfs, 4},
                 {serve::ServeAlgo::Sssp, 2},
                 {serve::ServeAlgo::Ppr, 1},
                 {serve::ServeAlgo::Cc, 1}};
constexpr unsigned kServeMixTotal = 8;

/** Batched queries checked against solo runs in the warm-up round. */
constexpr unsigned kSsspSample = 16;
constexpr unsigned kPprSample = 8;

/** Latency limit of serve.slo_frac, model seconds. */
constexpr double kSloSeconds = 0.100;

/**
 * serve_mix: one ServeEngine with the batching scheduler and a
 * 64-query admission queue keeps both datasets resident; every round
 * replays the same seeded arrival stream, shifted to start where the
 * previous round's model clock stopped.
 */
class ServeWorkload final : public Workload
{
  public:
    ServeWorkload(ServeConfig config, std::uint64_t seed)
        : cfg_(std::move(config)), seed_(seed)
    {
    }

    void
    setup(SpanLog &spans) override
    {
        engine_.reset();
        datasets_.clear();
        expected_.clear();
        ssspChecked_ = 0;
        pprChecked_ = 0;
        sys_ = makeSystem(cfg_.dpus);
        serve::ServeOptions options;
        options.dpus = cfg_.dpus;
        options.queueCapacity = 64;
        options.scheduler = serve::SchedulerKind::Batching;
        // Fixed-length PPR: an early-exit test on float sums whose
        // last bits vary (kRepeatTolerance) could change a query's
        // iteration count, and with it the model clock.
        options.app.pprTolerance = 0.0;
        options.app.pprIterations = 10;
        app_ = options.app;
        engine_ = std::make_unique<serve::ServeEngine>(*sys_, options);
        for (std::size_t g = 0; g < cfg_.graphs.size(); ++g) {
            const GraphSpec &spec = cfg_.graphs[g];
            Dataset &d = datasets_.emplace_back();
            d.name = spec.abbreviation;
            {
                // The resident datasets are the server's deployment, not
                // its input: they are generated with buildDataset's
                // default seed, and the bench seed drives the traffic.
                // Graphs this small vary so much in shape from seed to
                // seed that a seeded deployment would swing a round's
                // host work by a tenth.
                ScopedSpan span(spans, "generate", g);
                d.adjacency =
                    sparse::buildDataset(spec.abbreviation, spec.scale)
                        .adjacency;
            }
            {
                ScopedSpan span(spans, "stats", g);
                engine_->loadDataset(d.name, d.adjacency);
            }
            ScopedSpan span(spans, "engine_build", g);
            prime(d.name);
        }
        ScopedSpan span(spans, "generate", cfg_.graphs.size());
        arrivals_ = makeArrivals();
    }

    RoundResult
    round(SpanLog &spans, Tally &tally, bool warmup) override
    {
        serve::ServeEngine &engine = *engine_;
        std::vector<serve::ServeQuery> arrivals = arrivals_;
        const Seconds base = engine.now();
        for (serve::ServeQuery &q : arrivals)
            q.arrival += base;
        std::vector<std::uint64_t> ids(arrivals.size());
        const std::size_t first_result = engine.results().size();
        const core::PhaseTimes phases_before = engine.phaseTotals();
        const std::uint64_t iterations_before = engine.servedIterations();
        const std::uint64_t batches_before = engine.summary().batches;

        RoundResult r;
        std::uint64_t max_depth = 0;
        std::uint64_t steps = 0;
        std::size_t i = 0;
        const auto submit = [&] {
            ScopedSpan span(spans, "serve_submit", i);
            engine.submit(arrivals[i], &ids[i]);
            max_depth = std::max<std::uint64_t>(max_depth,
                                                engine.queueDepth());
            ++i;
        };
        // serve::runOpenLoop's event loop, restated so that every
        // submit and step gets its own span.
        const auto t0 = Clock::now();
        while (i < arrivals.size() || !engine.idle()) {
            if (engine.idle()) {
                const Seconds t = arrivals[i].arrival;
                while (i < arrivals.size() && arrivals[i].arrival <= t)
                    submit();
            }
            {
                ScopedSpan span(spans, "serve_step", steps++);
                engine.step();
            }
            while (i < arrivals.size() &&
                   arrivals[i].arrival <= engine.now())
                submit();
        }
        r.wall = secondsSince(t0);

        const core::PhaseTimes &phases = engine.phaseTotals();
        r.model.load = phases.load - phases_before.load;
        r.model.kernel = phases.kernel - phases_before.kernel;
        r.model.retrieve = phases.retrieve - phases_before.retrieve;
        r.model.merge = phases.merge - phases_before.merge;
        r.iterations = engine.servedIterations() - iterations_before;
        r.serve.batches = engine.summary().batches - batches_before;
        r.runs = r.serve.batches;
        r.serve.maxQueueDepth = max_depth;

        ScopedSpan span(spans, "verify");
        std::map<std::uint64_t, std::size_t> position;
        for (std::size_t k = 0; k < ids.size(); ++k)
            position[ids[k]] = k;
        if (warmup)
            expected_.assign(arrivals.size(), Expected{});
        const auto &results = engine.results();
        if (results.size() - first_result != arrivals.size())
            ++tally.wrong; // a query vanished without a result
        std::vector<double> latencies;
        std::uint64_t within_slo = 0;
        Seconds last_finish = base;
        for (std::size_t n = first_result; n < results.size(); ++n) {
            const serve::ServeResult &res = results[n];
            if (!res.admitted) {
                tally.refuse();
                ++r.serve.rejects;
                continue;
            }
            latencies.push_back(res.latency());
            within_slo += res.latency() <= kSloSeconds;
            last_finish = std::max(last_finish, res.finish);
            const std::size_t k = position.at(res.queryId);
            // PPR bits vary between rounds (kRepeatTolerance) and the
            // serving layer exposes only a checksum of them.
            const Expected seen{res.algo == serve::ServeAlgo::Ppr
                                    ? 0
                                    : res.resultChecksum,
                                res.batchSize, res.iterations};
            if (warmup) {
                expected_[k] = seen;
                tally.check(verifyQuery(res));
            } else {
                tally.check(expected_.at(k) == seen);
            }
        }
        const double completed = static_cast<double>(latencies.size());
        r.serve.p50 = percentileOf(latencies, 50.0);
        r.serve.p95 = percentileOf(latencies, 95.0);
        r.serve.sloFraction =
            static_cast<double>(within_slo) /
            static_cast<double>(std::max<std::size_t>(arrivals.size(), 1));
        if (!arrivals.empty() && last_finish > arrivals.front().arrival)
            r.serve.qps = completed / (last_finish - arrivals.front().arrival);
        if (r.serve.batches > 0)
            r.serve.meanBatch =
                completed / static_cast<double>(r.serve.batches);
        return r;
    }

  private:
    struct Dataset
    {
        std::string name;
        sparse::CooMatrix<float> adjacency;
        /** Verification state, built on first use. */
        sparse::CooMatrix<float> normalized;
        std::unique_ptr<core::PimEngine<core::MinPlus>> soloSssp;
        std::unique_ptr<core::PimEngine<core::PlusTimes>> soloPpr;
        std::uint64_t componentsChecksum = 0;
    };

    /** What a measured round must reproduce for each query. */
    struct Expected
    {
        std::uint64_t checksum = 0;
        unsigned batchSize = 0;
        unsigned iterations = 0;

        bool operator==(const Expected &) const = default;
    };

    Dataset &
    dataset(const std::string &name)
    {
        for (Dataset &d : datasets_) {
            if (d.name == name)
                return d;
        }
        fatal("serve result names an unknown dataset '%s'", name.c_str());
    }

    /** Build a dataset's resident engines -- bfs, batched and solo
     * sssp, ppr, cc -- with a few queries, so that rounds measure the
     * steady state of a server whose engines are already loaded. */
    void
    prime(const std::string &name)
    {
        using serve::ServeAlgo;
        const std::vector<std::vector<ServeAlgo>> waves = {
            {ServeAlgo::Bfs, ServeAlgo::Sssp, ServeAlgo::Sssp},
            {ServeAlgo::Sssp},
            {ServeAlgo::Ppr, ServeAlgo::Cc}};
        for (const auto &wave : waves) {
            for (const ServeAlgo algo : wave) {
                serve::ServeQuery q;
                q.tenant = "prime";
                q.dataset = name;
                q.algo = algo;
                q.arrival = engine_->now();
                engine_->submit(q);
            }
            engine_->drain();
        }
    }

    /** One seeded Poisson stream per (dataset, algorithm), merged by
     * arrival. Separate streams fix each algorithm's share of a round
     * exactly; a single mixed stream would let it vary by seed. Sources
     * are folded into the largest component for the same reason: how
     * many near-empty traversals from tiny components a round draws
     * would otherwise vary by seed. */
    std::vector<serve::ServeQuery>
    makeArrivals() const
    {
        std::vector<serve::ServeQuery> all;
        const auto datasets = static_cast<unsigned>(datasets_.size());
        for (unsigned d = 0; d < datasets; ++d) {
            const std::vector<NodeId> members =
                largestComponent(datasets_[d].adjacency);
            for (unsigned m = 0; m < std::size(kServeMix); ++m) {
                serve::LoadGenOptions load;
                load.seed = seed_ * 0x9e3779b97f4a7c15ull + d * 16 + m + 1;
                load.dataset = datasets_[d].name;
                load.mix = {kServeMix[m].algo};
                load.queries = cfg_.queries * kServeMix[m].weight /
                                   (kServeMixTotal * datasets) +
                               1;
                load.arrivalRate = cfg_.rate * kServeMix[m].weight /
                                   (kServeMixTotal * datasets);
                auto stream = serve::openLoopQueries(
                    load, engine_->datasetRows(datasets_[d].name));
                for (serve::ServeQuery &q : stream)
                    q.source = members[q.source % members.size()];
                // Every stream opens with an arrival at t=0; drop it
                // so rounds do not start with a synchronized burst.
                all.insert(all.end(), stream.begin() + 1, stream.end());
            }
        }
        std::stable_sort(all.begin(), all.end(),
                         [](const serve::ServeQuery &a,
                            const serve::ServeQuery &b) {
                             return a.arrival < b.arrival;
                         });
        return all;
    }

    /** Warm-up check of one admitted query: BFS and CC against the
     * checksum of the host reference; a deterministic sample of SSSP
     * against solo runs, themselves checked against the host
     * reference. PPR checksums cannot match a solo run bit for bit
     * (kRepeatTolerance), so for the PPR sample only the solo run is
     * checked. Later rounds cover the rest by reproducing the
     * warm-up. */
    bool
    verifyQuery(const serve::ServeResult &res)
    {
        Dataset &d = dataset(res.dataset);
        switch (res.algo) {
          case serve::ServeAlgo::Bfs:
            return res.resultChecksum ==
                   fnv1a(apps::referenceBfs(d.adjacency, res.source));
          case serve::ServeAlgo::Cc:
            if (d.componentsChecksum == 0)
                d.componentsChecksum =
                    fnv1a(apps::referenceComponents(d.adjacency));
            return res.resultChecksum == d.componentsChecksum;
          case serve::ServeAlgo::Sssp: {
            if (ssspChecked_ >= kSsspSample)
                return true;
            ++ssspChecked_;
            if (!d.soloSssp)
                d.soloSssp =
                    std::make_unique<core::PimEngine<core::MinPlus>>(
                        *sys_, d.adjacency, cfg_.dpus,
                        core::MxvStrategy::Adaptive);
            const auto solo = apps::ssspWithEngine(*sys_, *d.soloSssp,
                                                   res.source, app_);
            return fnv1a(solo.distances) == res.resultChecksum &&
                   verifySssp(d.adjacency, res.source, solo.distances);
          }
          case serve::ServeAlgo::Ppr: {
            if (pprChecked_ >= kPprSample)
                return true;
            ++pprChecked_;
            if (!d.soloPpr) {
                d.normalized = apps::normalizeColumns(d.adjacency);
                d.soloPpr =
                    std::make_unique<core::PimEngine<core::PlusTimes>>(
                        *sys_, d.normalized, cfg_.dpus,
                        core::MxvStrategy::Adaptive);
            }
            const auto solo = apps::pprWithEngine(*sys_, *d.soloPpr,
                                                  res.source, app_);
            return verifyPpr(d.adjacency, res.source, app_, solo.ranks);
          }
        }
        return false;
    }

    ServeConfig cfg_;
    std::uint64_t seed_;
    apps::AppConfig app_;
    // Declared before engine_: the serve engine keeps a reference.
    std::unique_ptr<upmem::UpmemSystem> sys_;
    std::unique_ptr<serve::ServeEngine> engine_;
    std::vector<Dataset> datasets_;
    std::vector<serve::ServeQuery> arrivals_;
    std::vector<Expected> expected_; ///< indexed by stream position
    unsigned ssspChecked_ = 0;
    unsigned pprChecked_ = 0;
};

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    using core::MxvStrategy;
    const bool smoke = opt.smoke;
    if (opt.workload == "fig07_sweep") {
        // fig07's three largest-speedup graphs at reduced scale.
        const double edges = smoke ? 1'000 : 5'000;
        AppsConfig c;
        c.graphs = {{"p2p-24", scaleForEdges("p2p-24", edges), 1},
                    {"e-En", scaleForEdges("e-En", edges), 1},
                    {"face", scaleForEdges("face", edges), 1}};
        c.algos = {Algo::Bfs, Algo::Sssp, Algo::Ppr};
        c.strategies = {MxvStrategy::SpmvOnly, MxvStrategy::Adaptive};
        c.dpus = smoke ? 8 : 256;
        c.app.pprIterations = 8;
        c.app.pprTolerance = 0.0;
        return std::make_unique<AppsWorkload>(std::move(c), opt.seed);
    }
    if (opt.workload == "road_traverse") {
        AppsConfig c;
        c.graphs = {{"r-TX", smoke ? 0.002 : 0.005, smoke ? 1u : 6u}};
        c.algos = {Algo::Bfs, Algo::Sssp};
        c.strategies = {MxvStrategy::Adaptive};
        c.dpus = smoke ? 16 : 256;
        return std::make_unique<AppsWorkload>(std::move(c), opt.seed);
    }
    if (opt.workload == "dense_ppr") {
        AppsConfig c;
        c.graphs = {{"face", smoke ? 0.05 : 1.0, 1},
                    {"e-En", smoke ? 0.02 : 0.2, 1}};
        c.algos = {Algo::Ppr};
        c.strategies = {MxvStrategy::SpmvOnly};
        c.dpus = smoke ? 64 : 2048;
        c.app.pprIterations = smoke ? 5 : 4;
        c.app.pprTolerance = 0.0;
        return std::make_unique<AppsWorkload>(std::move(c), opt.seed);
    }
    if (opt.workload == "serve_mix") {
        ServeConfig c;
        c.graphs = {{"as00", smoke ? 0.05 : 0.1, 0},
                    {"ca-Q", smoke ? 0.05 : 0.1, 0}};
        c.dpus = smoke ? 16 : 32;
        c.queries = smoke ? 32 : 240;
        c.rate = 180.0;
        return std::make_unique<ServeWorkload>(std::move(c), opt.seed);
    }
    fatal("unknown workload '%s'", opt.workload.c_str());
}

/** Raw per-layer quantities of the traced rounds, summed. */
using Sums = std::map<std::string, double>;

/** Fold the host profiler and metrics registry of one traced round. */
void
addTracedRound(Sums &sums, const telemetry::HostProfile &host)
{
    using telemetry::HostPhase;
    const auto phase = [&](HostPhase p) {
        return host.phaseSeconds[static_cast<unsigned>(p)];
    };
    sums["trace_record"] += phase(HostPhase::TraceRecord);
    sums["replay"] += phase(HostPhase::Replay);
    sums["profile_fold"] += phase(HostPhase::ProfileFold);
    sums["transfer_model"] += phase(HostPhase::TransferModel);
    sums["host_merge"] += phase(HostPhase::HostMerge);
    sums["analysis"] += phase(HostPhase::Analysis);
    sums["replay_slots"] += static_cast<double>(host.replaySlots);
    sums["trace_records"] += static_cast<double>(host.traceRecords);
    sums["trace_bytes_peak"] +=
        static_cast<double>(host.taskletTraceBytesPeak);

    const auto &m = telemetry::metrics();
    for (const char *name :
         {"engine.spmspv_launches", "engine.spmv_launches",
          "dpu.total_cycles", "dpu.issued_cycles",
          "dpu.stall.memory_cycles", "dpu.stall.revolver_cycles",
          "dpu.stall.rf_hazard_cycles", "dpu.stall.sync_cycles",
          "xfer.scatter_bytes", "xfer.gather_bytes",
          "xfer.broadcast_bytes"})
        sums[name] += static_cast<double>(m.counterValue(name));
    for (unsigned c = 0; c < upmem::numOpCategories; ++c)
        sums["instructions"] += static_cast<double>(m.counterValue(
            std::string("dpu.instr.") +
            upmem::opCategoryName(static_cast<upmem::OpCategory>(c))));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
endToEndMetrics(const std::vector<double> &setups,
                const std::vector<double> &walls, const RoundResult &warm)
{
    const double wall = percentileOf(walls, 50.0);
    const double model = warm.model.total();
    return {
        {"setup_s", percentileOf(setups, 50.0), "s"},
        {"wall_s", wall, "s"},
        {"slowdown", ratio(wall, model), "s/s"},
        {"model_s", model, "s"},
        {"peak_rss_mb",
         static_cast<double>(telemetry::HostProfiler::peakRssBytes()) /
             (1024.0 * 1024.0),
         "MB"},
    };
}

struct TracedRun
{
    Sums sums;                  ///< addTracedRound() over traced rounds
    std::vector<double> walls;  ///< traced round walls
    std::vector<double> untracedWalls;
    /** [first, last) span indices of each traced round. */
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::pair<std::size_t, std::size_t> warmRange;
    unsigned setups = 0;
};

std::vector<Metric>
perLayerMetrics(const SpanLog &log, const TracedRun &t,
                const RoundResult &warm)
{
    const double n = static_cast<double>(t.walls.size());
    const auto mean = [&](const char *name) {
        const auto it = t.sums.find(name);
        return it == t.sums.end() ? 0.0 : it->second / n;
    };

    // Span statistics: set-up spans per set-up, round spans per traced
    // round, verification in the warm-up round.
    const auto &spans = log.spans();
    const std::vector<double> self = log.selfSeconds();
    std::map<std::string, double> self_by_name;
    for (std::size_t i = 0; i < spans.size(); ++i)
        self_by_name[spans[i].name] += self[i];
    double verify_s = 0.0;
    for (std::size_t i = t.warmRange.first; i < t.warmRange.second; ++i) {
        if (spans[i].name == "verify")
            verify_s += self[i];
    }
    std::vector<double> run_ms;
    std::vector<double> step_ms;
    std::vector<double> submit_us;
    double round_self = 0.0;
    for (const auto &[first, last] : t.ranges) {
        for (std::size_t i = first; i < last; ++i) {
            const SpanLog::Span &s = spans[i];
            const double d = s.end - s.start;
            if (s.name == "app_run" || s.name == "serve_step")
                run_ms.push_back(d * 1e3);
            if (s.name == "serve_step")
                step_ms.push_back(d * 1e3);
            else if (s.name == "serve_submit")
                submit_us.push_back(d * 1e6);
            else if (s.name == "round")
                round_self += self[i];
        }
    }
    const double setups = static_cast<double>(t.setups);
    const double untraced_wall = percentileOf(t.untracedWalls, 50.0);
    const double launches =
        mean("engine.spmspv_launches") + mean("engine.spmv_launches");
    const double cycles = mean("dpu.total_cycles");
    const double replay = mean("replay");
    const double mb = 1.0 / (1024.0 * 1024.0);
    const auto cycle_frac = [&](const char *counter) {
        return ratio(mean(counter), cycles);
    };
    const ServeRound &sv = warm.serve;
    return {
        {"sparse.generate_s", self_by_name["generate"] / setups, "s"},
        {"sparse.stats_s", self_by_name["stats"] / setups, "s"},
        {"core.engine_build_s", self_by_name["engine_build"] / setups, "s"},
        {"core.spmspv_launches", mean("engine.spmspv_launches"), "count"},
        {"core.spmv_launches", mean("engine.spmv_launches"), "count"},
        {"core.launch_host_ms", ratio(untraced_wall * 1e3, launches), "ms"},
        {"apps.runs", static_cast<double>(warm.runs), "count"},
        {"apps.iterations", static_cast<double>(warm.iterations), "count"},
        {"apps.run_ms_p50", percentileOf(run_ms, 50.0), "ms"},
        {"apps.run_ms_p95", percentileOf(run_ms, 95.0), "ms"},
        {"apps.run_samples", static_cast<double>(run_ms.size()), "count"},
        {"apps.host_merge_s", mean("host_merge"), "s"},
        {"upmem.trace_record_s", mean("trace_record"), "s"},
        {"upmem.replay_s", replay, "s"},
        {"upmem.replay_mslots_per_s",
         ratio(mean("replay_slots"), replay) / 1e6, "Mslot/s"},
        {"upmem.profile_fold_s", mean("profile_fold"), "s"},
        {"upmem.transfer_model_s", mean("transfer_model"), "s"},
        {"upmem.trace_records", mean("trace_records"), "count"},
        {"upmem.replay_slots", mean("replay_slots"), "count"},
        {"upmem.trace_bytes_peak_mb", mean("trace_bytes_peak") * mb, "MB"},
        {"upmem.dpu_cycles", cycles, "count"},
        {"upmem.instructions", mean("instructions"), "count"},
        {"upmem.issued_frac", cycle_frac("dpu.issued_cycles"), "frac"},
        {"upmem.stall_memory_frac", cycle_frac("dpu.stall.memory_cycles"),
         "frac"},
        {"upmem.stall_revolver_frac",
         cycle_frac("dpu.stall.revolver_cycles"), "frac"},
        {"upmem.stall_rf_hazard_frac",
         cycle_frac("dpu.stall.rf_hazard_cycles"), "frac"},
        {"upmem.stall_sync_frac", cycle_frac("dpu.stall.sync_cycles"),
         "frac"},
        {"upmem.xfer_scatter_mb", mean("xfer.scatter_bytes") * mb, "MB"},
        {"upmem.xfer_gather_mb", mean("xfer.gather_bytes") * mb, "MB"},
        {"upmem.xfer_broadcast_mb", mean("xfer.broadcast_bytes") * mb,
         "MB"},
        {"model.load_s", warm.model.load, "s"},
        {"model.kernel_s", warm.model.kernel, "s"},
        {"model.retrieve_s", warm.model.retrieve, "s"},
        {"model.merge_s", warm.model.merge, "s"},
        {"serve.qps", sv.qps, "q/s"},
        {"serve.p50_ms", sv.p50 * 1e3, "ms"},
        {"serve.p95_ms", sv.p95 * 1e3, "ms"},
        {"serve.slo_frac", sv.sloFraction, "frac"},
        {"serve.batches", static_cast<double>(sv.batches), "count"},
        {"serve.mean_batch", sv.meanBatch, "count"},
        {"serve.max_queue_depth", static_cast<double>(sv.maxQueueDepth),
         "count"},
        {"serve.rejects", static_cast<double>(sv.rejects), "count"},
        {"serve.step_ms_p50", percentileOf(step_ms, 50.0), "ms"},
        {"serve.step_ms_p95", percentileOf(step_ms, 95.0), "ms"},
        {"serve.submit_us_p50", percentileOf(submit_us, 50.0), "us"},
        {"telemetry.analysis_s", mean("analysis"), "s"},
        {"telemetry.trace_overhead_frac",
         ratio(percentileOf(t.walls, 50.0), untraced_wall) - 1.0, "frac"},
        {"bench.verify_s", verify_s, "s"},
        {"bench.round_self_s", round_self / n, "s"},
        {"bench.traced_rounds", n, "count"},
    };
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig07_sweep", "road_traverse", "dense_ppr", "serve_mix"};
    return names;
}

Outcome
runWorkload(const Options &opt)
{
    const std::unique_ptr<Workload> workload = makeWorkload(opt);
    SpanLog spans;
    spans.setEnabled(opt.trace);
    Outcome out;
    TracedRun traced;
    std::vector<double> setups;
    std::vector<double> walls;
    RoundResult warm;
    {
        ScopedSpan whole(spans, "workload");
        const unsigned reps = opt.smoke ? 1 : 3;
        for (unsigned rep = 0; rep < reps; ++rep) {
            // Each set-up starts as cold as a fresh process would.
            sparse::resetStatsCache();
            const auto t0 = Clock::now();
            {
                ScopedSpan span(spans, "setup", rep);
                workload->setup(spans);
            }
            setups.push_back(secondsSince(t0));
        }
        traced.setups = reps;

        traced.warmRange.first = spans.spans().size();
        {
            ScopedSpan span(spans, "round", 0);
            warm = workload->round(spans, out.tally, true);
        }
        traced.warmRange.second = spans.spans().size();

        // A traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured on the same inputs and state.
        const auto start = Clock::now();
        for (unsigned i = 1;; ++i) {
            const bool trace_round = opt.trace && i % 2 == 0;
            if (opt.trace)
                spans.setEnabled(trace_round);
            if (trace_round) {
                telemetry::metrics().clear();
                telemetry::metrics().setEnabled(true);
                telemetry::hostProfiler().reset();
                telemetry::hostProfiler().setEnabled(true);
            }
            const std::size_t first_span = spans.spans().size();
            RoundResult r;
            {
                ScopedSpan span(spans, "round", i);
                r = workload->round(spans, out.tally, false);
            }
            if (trace_round) {
                addTracedRound(traced.sums,
                               telemetry::hostProfiler().snapshot(
                                   r.model.total()));
                telemetry::hostProfiler().setEnabled(false);
                telemetry::metrics().setEnabled(false);
                traced.walls.push_back(r.wall);
                traced.ranges.emplace_back(first_span,
                                           spans.spans().size());
            } else if (opt.trace) {
                traced.untracedWalls.push_back(r.wall);
            }
            walls.push_back(r.wall);
            if (secondsSince(start) >= opt.seconds &&
                (!opt.trace || i >= 2))
                break;
        }
    }

    out.metrics = opt.trace ? perLayerMetrics(spans, traced, warm)
                            : endToEndMetrics(setups, walls, warm);
    if (!opt.traceOut.empty())
        spans.writeChromeTrace(opt.traceOut);
    return out;
}

std::string
resultJson(const Outcome &outcome)
{
    std::string json = "{\"correct\": ";
    json += outcome.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.tally.attempted);
    json += ", \"failed\": " + std::to_string(outcome.tally.failed());
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    return json;
}

} // namespace alphapim::suite
