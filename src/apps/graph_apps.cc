#include "graph_apps.hh"

#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "apps/multi_source.hh"
#include "apps/reference_algorithms.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace alphapim::apps
{

namespace
{

/** Resolve the DPU count: 0 means "all the system has". */
unsigned
resolveDpus(const upmem::UpmemSystem &sys, const AppConfig &cfg)
{
    return cfg.dpus == 0 ? sys.numDpus() : cfg.dpus;
}

/** Iteration cap: explicit, or the vertex count. */
unsigned
resolveMaxIters(const AppConfig &cfg, NodeId n)
{
    return cfg.maxIterations == 0 ? n : cfg.maxIterations;
}

/**
 * Record one application iteration with the telemetry subsystem: an
 * "<app>.iteration" span on the engine track enclosing the launch's
 * phase spans, plus the iteration counter. `host_merge_extra` is the
 * host-side frontier/convergence time the app charged to the Merge
 * phase after the launch; the model clock advances past it so the
 * next iteration starts where this one ends.
 */
void
recordIteration(const char *app, const IterationLog &log,
                Seconds it_start, Seconds host_merge_extra)
{
    auto &t = telemetry::tracer();
    if (t.enabled()) {
        t.advance(host_merge_extra);
        t.completeEvent(
            telemetry::engineTrack,
            std::string(app) + ".iteration", "app", it_start,
            t.now() - it_start,
            {telemetry::arg(
                 "iteration",
                 static_cast<std::uint64_t>(log.iteration)),
             telemetry::arg("input_density", log.inputDensity),
             telemetry::arg("output_density", log.outputDensity),
             telemetry::arg("kernel",
                            log.usedSpmv ? "spmv" : "spmspv")});
    }
    telemetry::metrics().addCounter("engine.iterations");
}

/** Emit the convergence instant + counter when a run converged. */
void
recordConvergence(const char *app, bool converged)
{
    if (!converged)
        return;
    auto &t = telemetry::tracer();
    if (t.enabled()) {
        t.instantEvent(telemetry::engineTrack,
                       std::string(app) + ".converged", "app",
                       t.now());
    }
    telemetry::metrics().addCounter("app.converged_runs");
}

/** What an application tells the iteration loop besides its update. */
struct LoopSpec
{
    /** Telemetry prefix: "<app>.iteration", "<app>.converged". */
    const char *app;
    /** Launch cap. */
    unsigned maxIters;
    /** Host-side update and convergence check, charged to Merge. */
    Seconds hostMerge;
    /** A run that reaches the cap counts as converged (fixed-
     * iteration PPR), even after zero launches. */
    bool convergedAtCap = false;
};

/** The usual fixpoint: no vertex changed, so the next frontier is
 * empty. */
struct EmptyFrontier
{
    template <typename V>
    bool
    operator()(const sparse::SparseVector<V> &next) const
    {
        return next.nnz() == 0;
    }
};

/**
 * The one iteration loop of every graph application. Each iteration
 * multiplies the frontier, charges `spec.hostMerge` to Merge, and
 * builds the next frontier from `update(iter, v, y[v])` over every
 * vertex: an additive-identity result leaves v out. It then records
 * the iteration and stops once `fixpoint(next)` holds or after
 * `spec.maxIters` launches.
 */
template <core::Semiring S, typename Update,
          typename Fixpoint = EmptyFrontier>
void
iterate(const LoopSpec &spec, core::PimEngine<S> &engine,
        sparse::SparseVector<typename S::Value> frontier,
        RunTotals &run, Update update, Fixpoint fixpoint = {})
{
    const NodeId n = engine.numRows();
    for (unsigned iter = 1; iter <= spec.maxIters && !run.converged;
         ++iter) {
        IterationLog log;
        log.iteration = iter;
        log.inputDensity = frontier.density();
        const Seconds it_start = telemetry::tracer().now();

        auto r = engine.multiply(frontier);
        r.times.merge += spec.hostMerge;
        sparse::SparseVector<typename S::Value> next(n);
        for (NodeId v = 0; v < n; ++v) {
            const auto out = update(iter, v, r.y[v]);
            if (!S::isZero(out))
                next.append(v, out);
        }

        log.outputDensity = next.density();
        log.usedSpmv = engine.lastUsedSpmv();
        log.times = r.times;
        log.semiringOps = r.semiringOps;
        run.addIteration(log, r.profile);
        recordIteration(spec.app, log, it_start, spec.hostMerge);

        run.converged = fixpoint(next);
        frontier = std::move(next);
    }
    run.converged = run.converged || spec.convergedAtCap;
    recordConvergence(spec.app, run.converged);
}

/** Convergence-check charge of one pass over n values of V. */
template <typename V>
Seconds
convergenceCharge(const upmem::UpmemSystem &sys, NodeId n)
{
    return sys.host().convergenceTime(static_cast<Bytes>(n) *
                                      sizeof(V));
}

/**
 * BFS from `sources`, bit s of every value carrying source s's
 * wavefront. A BoolOrAnd engine carries the one lane of a
 * single-source BFS: its values are 0 or 1, so `y & ~visited` is
 * nonzero exactly when y is set and v is unvisited.
 */
template <core::Semiring S>
MultiSourceResult
bfsLanes(const char *app, const upmem::UpmemSystem &sys,
         core::PimEngine<S> &engine, const std::vector<NodeId> &sources,
         const AppConfig &config)
{
    const NodeId n = engine.numRows();
    for (NodeId s : sources)
        ALPHA_ASSERT(s < n, "BFS source out of range");

    MultiSourceResult result;
    result.sources = sources;
    result.levels.assign(sources.size(),
                         std::vector<std::uint32_t>(n, invalidNode));

    // visited[v] bit s set once source s's wavefront reached v.
    std::vector<std::uint32_t> visited(n, 0);
    // Seed: sources sharing a vertex OR their bits into one entry;
    // the map keeps the frontier's ascending index order.
    std::map<NodeId, std::uint32_t> seed;
    for (std::size_t s = 0; s < sources.size(); ++s) {
        seed[sources[s]] |= 1u << s;
        result.levels[s][sources[s]] = 0;
    }
    sparse::SparseVector<std::uint32_t> frontier(n);
    for (const auto &[v, mask] : seed) {
        visited[v] |= mask;
        frontier.append(v, mask);
    }

    // A vertex joins lane s's next frontier iff bit s arrived and
    // lane s had not visited it.
    iterate({app, resolveMaxIters(config, n),
             convergenceCharge<std::uint32_t>(sys, n)},
            engine, std::move(frontier), result,
            [&](unsigned iter, NodeId v, std::uint32_t y) {
                const std::uint32_t newbits = y & ~visited[v];
                if (newbits != 0) {
                    visited[v] |= newbits;
                    for (std::size_t s = 0; s < sources.size(); ++s) {
                        if (newbits & (1u << s))
                            result.levels[s][v] = iter;
                    }
                }
                return newbits;
            });
    return result;
}

/** Lane s of an SSSP value: a MinPlus float is its own only lane. */
float &
lane(float &d, std::size_t /*s*/)
{
    return d;
}

template <unsigned L>
float &
lane(core::LaneArray<L> &d, std::size_t s)
{
    return d.lane[s];
}

/**
 * SSSP from `sources`, lane s of every value relaxing from source s.
 * A MinPlus engine carries the one lane of a single-source SSSP.
 */
template <core::Semiring S>
MultiSourceResult
ssspLanes(const char *app, const upmem::UpmemSystem &sys,
          core::PimEngine<S> &engine,
          const std::vector<NodeId> &sources, const AppConfig &config)
{
    using Value = typename S::Value;
    const NodeId n = engine.numRows();
    for (NodeId s : sources)
        ALPHA_ASSERT(s < n, "SSSP source out of range");

    const float inf = std::numeric_limits<float>::infinity();
    MultiSourceResult result;
    result.sources = sources;
    result.distances.assign(sources.size(),
                            std::vector<float>(n, inf));

    // Seed: lane s carries 0 at its source, +inf (the additive
    // identity) everywhere else -- including every unused lane, which
    // therefore never produces a finite distance.
    std::map<NodeId, Value> seed;
    for (std::size_t s = 0; s < sources.size(); ++s) {
        auto [it, inserted] = seed.try_emplace(sources[s], S::zero());
        lane(it->second, s) = 0.0f;
        result.distances[s][sources[s]] = 0.0f;
    }
    sparse::SparseVector<Value> frontier(n);
    for (const auto &[v, d] : seed)
        frontier.append(v, d);

    // Improved tentative distances propagate; everything else rides
    // as +inf and contributes nothing downstream.
    iterate({app, resolveMaxIters(config, n),
             convergenceCharge<Value>(sys, n)},
            engine, std::move(frontier), result,
            [&](unsigned, NodeId v, Value y) {
                Value out = S::zero();
                for (std::size_t s = 0; s < sources.size(); ++s) {
                    const float d = lane(y, s);
                    if (d < result.distances[s][v]) {
                        result.distances[s][v] = d;
                        lane(out, s) = d;
                    }
                }
                return out;
            });
    return result;
}

/** Lane 0 of a one-lane batch as a single-source result. */
AppResult
soloResult(MultiSourceResult &&batch)
{
    AppResult result;
    if (!batch.levels.empty())
        result.levels = std::move(batch.levels.front());
    if (!batch.distances.empty())
        result.distances = std::move(batch.distances.front());
    static_cast<RunTotals &>(result) = std::move(batch);
    return result;
}

} // namespace

AppResult
bfsWithEngine(const upmem::UpmemSystem &sys,
              core::PimEngine<core::BoolOrAnd> &engine,
              NodeId source, const AppConfig &config)
{
    return soloResult(bfsLanes("bfs", sys, engine, {source}, config));
}

AppResult
runBfs(const upmem::UpmemSystem &sys,
       const sparse::CooMatrix<float> &adjacency, NodeId source,
       const AppConfig &config)
{
    core::PimEngine<core::BoolOrAnd> engine(
        sys, adjacency, resolveDpus(sys, config), config.strategy,
        config.switchThreshold);
    return bfsWithEngine(sys, engine, source, config);
}

MultiSourceResult
multiBfsWithEngine(const upmem::UpmemSystem &sys,
                   core::PimEngine<core::BitsOrAnd> &engine,
                   const std::vector<NodeId> &sources,
                   const AppConfig &config)
{
    ALPHA_ASSERT(!sources.empty() && sources.size() <= kBfsLanes,
                 "multi-BFS batch must hold 1..32 sources");
    return bfsLanes("multi_bfs", sys, engine, sources, config);
}

MultiSourceResult
runMultiBfs(const upmem::UpmemSystem &sys,
            const sparse::CooMatrix<float> &adjacency,
            const std::vector<NodeId> &sources,
            const AppConfig &config)
{
    core::PimEngine<core::BitsOrAnd> engine(
        sys, adjacency, resolveDpus(sys, config), config.strategy,
        config.switchThreshold);
    return multiBfsWithEngine(sys, engine, sources, config);
}

AppResult
ssspWithEngine(const upmem::UpmemSystem &sys,
               core::PimEngine<core::MinPlus> &engine, NodeId source,
               const AppConfig &config)
{
    return soloResult(
        ssspLanes("sssp", sys, engine, {source}, config));
}

AppResult
runSssp(const upmem::UpmemSystem &sys,
        const sparse::CooMatrix<float> &weighted, NodeId source,
        const AppConfig &config)
{
    core::PimEngine<core::MinPlus> engine(
        sys, weighted, resolveDpus(sys, config), config.strategy,
        config.switchThreshold);
    return ssspWithEngine(sys, engine, source, config);
}

MultiSourceResult
multiSsspWithEngine(const upmem::UpmemSystem &sys,
                    core::PimEngine<SsspBatchSemiring> &engine,
                    const std::vector<NodeId> &sources,
                    const AppConfig &config)
{
    ALPHA_ASSERT(!sources.empty() && sources.size() <= kSsspLanes,
                 "multi-SSSP batch exceeds the lane count");
    return ssspLanes("multi_sssp", sys, engine, sources, config);
}

MultiSourceResult
runMultiSssp(const upmem::UpmemSystem &sys,
             const sparse::CooMatrix<float> &weighted,
             const std::vector<NodeId> &sources,
             const AppConfig &config)
{
    core::PimEngine<SsspBatchSemiring> engine(
        sys, weighted, resolveDpus(sys, config), config.strategy,
        config.switchThreshold);
    return multiSsspWithEngine(sys, engine, sources, config);
}

AppResult
pprWithEngine(const upmem::UpmemSystem &sys,
              core::PimEngine<core::PlusTimes> &engine, NodeId source,
              const AppConfig &config)
{
    const NodeId n = engine.numRows();
    ALPHA_ASSERT(source < n, "PPR source out of range");

    AppResult result;
    result.ranks.assign(n, 0.0f);
    result.ranks[source] = 1.0f;

    sparse::SparseVector<float> x(n);
    x.append(source, 1.0f);

    const auto alpha = static_cast<float>(config.pprAlpha);
    const float restart = 1.0f - alpha;
    const double tolerance = config.pprTolerance;
    double delta = 0.0;
    // Damping + restart + delta check on the host (Merge phase).
    // Tolerance 0 runs every iteration (fixed-iteration mode).
    iterate({"ppr", config.pprIterations,
             sys.host().mergeTime(
                 2 * static_cast<Bytes>(n) * sizeof(float), n),
             tolerance == 0.0},
            engine, std::move(x), result,
            [&](unsigned, NodeId v, float y) {
                float rank = alpha * y;
                if (v == source)
                    rank += restart;
                delta += std::abs(rank - result.ranks[v]);
                result.ranks[v] = rank;
                return rank;
            },
            [&](const sparse::SparseVector<float> &) {
                const bool settled = tolerance > 0.0 && delta < tolerance;
                delta = 0.0;
                return settled;
            });
    return result;
}

AppResult
runPpr(const upmem::UpmemSystem &sys,
       const sparse::CooMatrix<float> &adjacency, NodeId source,
       const AppConfig &config)
{
    const auto a_norm = normalizeColumns(adjacency);
    core::PimEngine<core::PlusTimes> engine(
        sys, a_norm, resolveDpus(sys, config), config.strategy,
        config.switchThreshold);
    return pprWithEngine(sys, engine, source, config);
}

AppResult
ccWithEngine(const upmem::UpmemSystem &sys,
             core::PimEngine<core::MinSelect> &engine,
             const AppConfig &config)
{
    const NodeId n = engine.numRows();

    // Frontier: vertices whose label changed last iteration --
    // initially everyone, carrying its own id as the label.
    AppResult result;
    result.levels.resize(n);
    sparse::SparseVector<std::uint32_t> frontier(n);
    for (NodeId v = 0; v < n; ++v) {
        result.levels[v] = v;
        frontier.append(v, v);
    }

    iterate({"cc", resolveMaxIters(config, n),
             convergenceCharge<std::uint32_t>(sys, n)},
            engine, std::move(frontier), result,
            [&](unsigned, NodeId v, std::uint32_t label) {
                if (label >= result.levels[v])
                    return core::MinSelect::zero();
                result.levels[v] = label;
                return label;
            });
    return result;
}

AppResult
runConnectedComponents(const upmem::UpmemSystem &sys,
                       const sparse::CooMatrix<float> &adjacency,
                       const AppConfig &config)
{
    core::PimEngine<core::MinSelect> engine(
        sys, adjacency, resolveDpus(sys, config), config.strategy,
        config.switchThreshold);
    return ccWithEngine(sys, engine, config);
}

} // namespace alphapim::apps
