#include "serve_engine.hh"

#include <algorithm>

#include "apps/reference_algorithms.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "perf/fingerprint.hh"
#include "sparse/stats_cache.hh"
#include "telemetry/metrics.hh"

namespace alphapim::serve
{

namespace
{

/** FNV-1a over a vector's raw element bytes. The seed is one digit
 * short of the FNV-1a offset basis; bench/suite hashes answers with
 * the same seed and compares them with resultChecksum, so it stays. */
template <typename T>
std::uint64_t
fnvChecksum(const std::vector<T> &v)
{
    return perf::fnv1a(v.data(), v.size() * sizeof(T),
                       1469598103934665603ull);
}

} // namespace

ServeResult
ResultLog::operator[](std::size_t i) const
{
    const Record &r = records_[i];
    ServeResult res;
    res.queryId = r.queryId;
    res.tenant = names_[r.tenant];
    res.dataset = names_[r.dataset];
    res.algo = static_cast<ServeAlgo>(r.algo);
    res.source = r.source;
    res.admitted = r.admitted;
    res.arrival = r.arrival;
    res.start = r.start;
    res.finish = r.finish;
    res.batchSize = r.batchSize;
    res.iterations = r.iterations;
    res.converged = r.converged;
    res.resultChecksum = r.resultChecksum;
    return res;
}

void
ResultLog::push_back(const ServeResult &res)
{
    static_assert(sizeof(Record) == 64, "a logged result is 64 bytes");
    records_.push_back({res.queryId, res.arrival, res.start, res.finish,
                        res.resultChecksum, res.source, intern(res.tenant),
                        intern(res.dataset), res.batchSize, res.iterations,
                        static_cast<std::uint8_t>(res.algo), res.admitted,
                        res.converged});
}

std::vector<double>
ResultLog::admittedLatencies() const
{
    std::vector<double> latencies;
    for (const Record &r : records_) {
        if (r.admitted)
            latencies.push_back(r.finish - r.arrival);
    }
    return latencies;
}

std::uint32_t
ResultLog::intern(const std::string &name)
{
    const auto [it, fresh] = index_.try_emplace(
        name, static_cast<std::uint32_t>(names_.size()));
    if (fresh)
        names_.push_back(name);
    return it->second;
}

/** Resident per-(algorithm, strategy) engines of one dataset. The
 * maps key on the strategy; engines build lazily on first use and
 * persist, so the matrix load and partition plan amortize across
 * every later query. */
struct ServeEngine::Dataset
{
    sparse::CooMatrix<float> adjacency;
    sparse::CooMatrix<float> normalized; ///< PPR's matrix
    std::uint64_t fingerprint = 0;

    template <typename S>
    using EngineMap =
        std::map<core::MxvStrategy,
                 std::unique_ptr<core::PimEngine<S>>>;

    EngineMap<core::BitsOrAnd> bfs;
    EngineMap<core::MinPlus> ssspSolo;
    EngineMap<apps::SsspBatchSemiring> ssspBatch;
    EngineMap<core::PlusTimes> ppr;
    EngineMap<core::MinSelect> cc;

    /** Fetch-or-build a resident engine. */
    template <typename S>
    static core::PimEngine<S> &
    resident(EngineMap<S> &map, const upmem::UpmemSystem &sys,
             const sparse::CooMatrix<float> &matrix, unsigned dpus,
             core::MxvStrategy strategy)
    {
        auto it = map.find(strategy);
        if (it == map.end()) {
            it = map.emplace(strategy,
                             std::make_unique<core::PimEngine<S>>(
                                 sys, matrix,
                                 dpus == 0 ? sys.numDpus() : dpus,
                                 strategy))
                     .first;
            telemetry::metrics().addCounter("serve.engine_builds");
        }
        return *it->second;
    }
};

ServeEngine::ServeEngine(const upmem::UpmemSystem &sys,
                         ServeOptions options)
    : sys_(sys), options_(options),
      scheduler_(makeScheduler(options.scheduler))
{
    ALPHA_ASSERT(options_.queueCapacity > 0,
                 "serve queue capacity must be positive");
}

ServeEngine::~ServeEngine() = default;

void
ServeEngine::loadDataset(const std::string &name,
                         const sparse::CooMatrix<float> &adjacency)
{
    auto ds = std::make_unique<Dataset>();
    ds->adjacency = adjacency;
    ds->normalized = apps::normalizeColumns(adjacency);
    ds->fingerprint = perf::datasetFingerprint(adjacency);
    // Warm the shared stats cache: every later engine build for this
    // dataset (any strategy) hits instead of recomputing.
    sparse::cachedGraphStats(ds->adjacency);
    datasets_[name] = std::move(ds);
    telemetry::metrics().addCounter("serve.datasets_loaded");
}

bool
ServeEngine::hasDataset(const std::string &name) const
{
    return datasets_.count(name) != 0;
}

ServeEngine::Dataset &
ServeEngine::dataset(const std::string &name)
{
    const auto it = datasets_.find(name);
    ALPHA_ASSERT(it != datasets_.end(),
                 "query names an unloaded dataset");
    return *it->second;
}

const ServeEngine::Dataset &
ServeEngine::dataset(const std::string &name) const
{
    const auto it = datasets_.find(name);
    ALPHA_ASSERT(it != datasets_.end(),
                 "query names an unloaded dataset");
    return *it->second;
}

NodeId
ServeEngine::datasetRows(const std::string &name) const
{
    return dataset(name).adjacency.numRows();
}

std::uint64_t
ServeEngine::datasetFingerprint(const std::string &name) const
{
    return dataset(name).fingerprint;
}

bool
ServeEngine::submit(const ServeQuery &query, std::uint64_t *id)
{
    ALPHA_ASSERT(query.arrival >= lastArrival_,
                 "serve submissions must arrive in time order");
    lastArrival_ = query.arrival;
    ++submitted_;
    if (firstArrival_ < 0.0)
        firstArrival_ = query.arrival;
    if (id)
        *id = nextId_;
    telemetry::metrics().addCounter("serve.queries_submitted");
    if (queue_.size() >= options_.queueCapacity) {
        ++rejected_;
        telemetry::metrics().addCounter("serve.admission_rejects");
        ServeResult res;
        res.queryId = nextId_++;
        res.tenant = query.tenant;
        res.dataset = query.dataset;
        res.algo = query.algo;
        res.source = query.source;
        res.admitted = false;
        res.arrival = query.arrival;
        res.start = query.arrival;
        res.finish = query.arrival;
        results_.push_back(res);
        return false;
    }
    queue_.push_back({nextId_++, query});
    maxQueueDepth_ =
        std::max<std::uint64_t>(maxQueueDepth_, queue_.size());
    telemetry::metrics().addSample(
        "serve.queue_depth", static_cast<double>(queue_.size()));
    return true;
}

void
ServeEngine::step()
{
    ALPHA_ASSERT(!queue_.empty(), "step() on an idle serve engine");
    serveBatch(scheduler_->next(queue_));
}

void
ServeEngine::drain()
{
    while (!queue_.empty())
        step();
}

void
ServeEngine::serveBatch(const std::vector<PendingQuery> &batch)
{
    const ServeQuery &head = batch.front().query;
    Dataset &ds = dataset(head.dataset);

    // The single server starts once it is free AND every coalesced
    // query has arrived.
    Seconds start = clock_;
    for (const PendingQuery &p : batch)
        start = std::max(start, p.query.arrival);

    std::vector<NodeId> sources;
    sources.reserve(batch.size());
    for (const PendingQuery &p : batch)
        sources.push_back(p.query.source);
    std::vector<std::uint64_t> checksums(batch.size(), 0);
    apps::RunTotals run;

    switch (head.algo) {
      case ServeAlgo::Bfs: {
        auto &engine = Dataset::resident<core::BitsOrAnd>(
            ds.bfs, sys_, ds.adjacency, options_.dpus,
            head.strategy);
        auto r = apps::multiBfsWithEngine(sys_, engine, sources,
                                          options_.app);
        for (std::size_t i = 0; i < batch.size(); ++i)
            checksums[i] = fnvChecksum(r.levels[i]);
        run = std::move(r);
        break;
      }
      case ServeAlgo::Sssp: {
        if (batch.size() == 1) {
            // Solo SSSP takes the plain MinPlus engine: under FIFO
            // (or an empty queue) a single query never pays the
            // lane-widened arithmetic.
            auto &engine = Dataset::resident<core::MinPlus>(
                ds.ssspSolo, sys_, ds.adjacency, options_.dpus,
                head.strategy);
            auto r = apps::ssspWithEngine(sys_, engine, head.source,
                                          options_.app);
            checksums[0] = fnvChecksum(r.distances);
            run = std::move(r);
        } else {
            auto &engine =
                Dataset::resident<apps::SsspBatchSemiring>(
                    ds.ssspBatch, sys_, ds.adjacency, options_.dpus,
                    head.strategy);
            auto r = apps::multiSsspWithEngine(sys_, engine, sources,
                                               options_.app);
            for (std::size_t i = 0; i < batch.size(); ++i)
                checksums[i] = fnvChecksum(r.distances[i]);
            run = std::move(r);
        }
        break;
      }
      case ServeAlgo::Ppr: {
        auto &engine = Dataset::resident<core::PlusTimes>(
            ds.ppr, sys_, ds.normalized, options_.dpus,
            head.strategy);
        auto r = apps::pprWithEngine(sys_, engine, head.source,
                                     options_.app);
        checksums[0] = fnvChecksum(r.ranks);
        run = std::move(r);
        break;
      }
      case ServeAlgo::Cc: {
        auto &engine = Dataset::resident<core::MinSelect>(
            ds.cc, sys_, ds.adjacency, options_.dpus,
            head.strategy);
        auto r = apps::ccWithEngine(sys_, engine, options_.app);
        checksums[0] = fnvChecksum(r.levels);
        run = std::move(r);
        break;
      }
    }

    const auto iterations = static_cast<unsigned>(run.iterations.size());
    clock_ = start + run.total.total();
    phaseTotals_ += run.total;
    servedIterations_ += iterations;
    ++batches_;
    batchedQueries_ += batch.size();
    maxBatchSize_ =
        std::max<std::uint64_t>(maxBatchSize_, batch.size());
    telemetry::metrics().addCounter("serve.batches");
    telemetry::metrics().addSample(
        "serve.batch_size", static_cast<double>(batch.size()));

    for (std::size_t i = 0; i < batch.size(); ++i) {
        const PendingQuery &p = batch[i];
        ServeResult res;
        res.queryId = p.id;
        res.tenant = p.query.tenant;
        res.dataset = p.query.dataset;
        res.algo = p.query.algo;
        res.source = p.query.source;
        res.admitted = true;
        res.arrival = p.query.arrival;
        res.start = start;
        res.finish = clock_;
        res.batchSize = static_cast<unsigned>(batch.size());
        res.iterations = iterations;
        res.converged = run.converged;
        res.resultChecksum = checksums[i];
        telemetry::metrics().addSample("serve.latency_seconds",
                                       res.latency());
        results_.push_back(res);
    }
}

perf::ServeSummary
ServeEngine::summary() const
{
    perf::ServeSummary s;
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.admitted = submitted_ - rejected_;
    // Summed in completion order, then sorted once for the
    // percentiles.
    std::vector<double> latencies = results_.admittedLatencies();
    s.completed = latencies.size();
    s.batches = batches_;
    s.meanBatchSize =
        batches_ > 0 ? static_cast<double>(batchedQueries_) /
                           static_cast<double>(batches_)
                     : 0.0;
    s.maxBatchSize = maxBatchSize_;
    s.maxQueueDepth = maxQueueDepth_;
    if (!latencies.empty()) {
        double sum = 0.0;
        for (double l : latencies)
            sum += l;
        s.latencyMean = sum / static_cast<double>(latencies.size());
        std::sort(latencies.begin(), latencies.end());
        s.latencyP50 = sortedPercentile(latencies, 50.0);
        s.latencyP95 = sortedPercentile(latencies, 95.0);
        s.latencyP99 = sortedPercentile(latencies, 99.0);
        s.latencyP999 = sortedPercentile(latencies, 99.9);
    }
    if (firstArrival_ >= 0.0 && clock_ > firstArrival_) {
        s.makespanSeconds = clock_ - firstArrival_;
        s.queriesPerSec =
            static_cast<double>(s.completed) / s.makespanSeconds;
    }
    return s;
}

} // namespace alphapim::serve
