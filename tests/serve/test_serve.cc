/**
 * @file
 * Serving subsystem tests: scheduler policies, bounded admission,
 * batched-vs-solo result identity through the serving path (the
 * checksums a tenant would observe), deterministic load generation,
 * and the fingerprint-keyed GraphStats cache (a second load of the
 * same dataset must do no stats work).
 */

#include <gtest/gtest.h>

#include "apps/reference_algorithms.hh"
#include "common/random.hh"
#include "serve/loadgen.hh"
#include "sparse/generators.hh"
#include "sparse/stats_cache.hh"

using namespace alphapim;
using namespace alphapim::serve;

namespace
{

upmem::UpmemSystem
testSystem(unsigned dpus = 8)
{
    upmem::SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.dpu.tasklets = 8;
    return upmem::UpmemSystem(cfg);
}

sparse::CooMatrix<float>
testGraph(std::uint64_t seed = 7)
{
    Rng rng(seed);
    const auto list = sparse::generateScaleMatched(300, 5, 15, rng);
    return sparse::edgeListToSymmetricCoo(list);
}

PendingQuery
pending(std::uint64_t id, const std::string &dataset, ServeAlgo algo,
        NodeId source,
        core::MxvStrategy strategy = core::MxvStrategy::Adaptive)
{
    PendingQuery p;
    p.id = id;
    p.query.tenant = "t0";
    p.query.dataset = dataset;
    p.query.algo = algo;
    p.query.source = source;
    p.query.strategy = strategy;
    return p;
}

ServeQuery
bfsQuery(NodeId source, Seconds arrival = 0.0,
         const std::string &dataset = "g")
{
    ServeQuery q;
    q.tenant = "t0";
    q.dataset = dataset;
    q.algo = ServeAlgo::Bfs;
    q.source = source;
    q.arrival = arrival;
    return q;
}

} // namespace

TEST(Scheduler, FifoServesOneQueryInArrivalOrder)
{
    auto sched = makeScheduler(SchedulerKind::Fifo);
    std::deque<PendingQuery> queue;
    queue.push_back(pending(0, "g", ServeAlgo::Bfs, 1));
    queue.push_back(pending(1, "g", ServeAlgo::Bfs, 2));
    queue.push_back(pending(2, "g", ServeAlgo::Bfs, 3));

    for (std::uint64_t expect = 0; expect < 3; ++expect) {
        const auto batch = sched->next(queue);
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(batch[0].id, expect);
    }
    EXPECT_TRUE(queue.empty());
}

TEST(Scheduler, BatchingCoalescesSameKeyPreservingOthers)
{
    auto sched = makeScheduler(SchedulerKind::Batching);
    std::deque<PendingQuery> queue;
    queue.push_back(pending(0, "g", ServeAlgo::Bfs, 1));
    queue.push_back(pending(1, "h", ServeAlgo::Bfs, 2)); // other graph
    queue.push_back(pending(2, "g", ServeAlgo::Sssp, 3)); // other algo
    queue.push_back(pending(3, "g", ServeAlgo::Bfs, 4));
    queue.push_back(pending(4, "g", ServeAlgo::Bfs, 5,
                            core::MxvStrategy::SpmvOnly)); // other strat
    queue.push_back(pending(5, "g", ServeAlgo::Bfs, 6));

    const auto batch = sched->next(queue);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].id, 0u);
    EXPECT_EQ(batch[1].id, 3u);
    EXPECT_EQ(batch[2].id, 5u);

    // Non-matching queries keep their relative order.
    ASSERT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue[0].id, 1u);
    EXPECT_EQ(queue[1].id, 2u);
    EXPECT_EQ(queue[2].id, 4u);
}

TEST(Scheduler, BatchingHonoursLaneLimits)
{
    auto sched = makeScheduler(SchedulerKind::Batching);
    std::deque<PendingQuery> queue;
    for (std::uint64_t i = 0; i < apps::kSsspLanes + 3; ++i)
        queue.push_back(pending(i, "g", ServeAlgo::Sssp,
                                static_cast<NodeId>(i)));
    EXPECT_EQ(sched->next(queue).size(), apps::kSsspLanes);
    EXPECT_EQ(queue.size(), 3u);

    // PPR and CC never batch.
    EXPECT_EQ(batchLimit(ServeAlgo::Ppr), 1u);
    EXPECT_EQ(batchLimit(ServeAlgo::Cc), 1u);
    EXPECT_EQ(batchLimit(ServeAlgo::Bfs), apps::kBfsLanes);
}

TEST(ServeEngine, AdmissionRejectsPastCapacity)
{
    const auto sys = testSystem();
    ServeOptions opt;
    opt.queueCapacity = 2;
    ServeEngine engine(sys, opt);
    engine.loadDataset("g", testGraph());

    EXPECT_TRUE(engine.submit(bfsQuery(1)));
    EXPECT_TRUE(engine.submit(bfsQuery(2)));
    std::uint64_t id = 0;
    EXPECT_FALSE(engine.submit(bfsQuery(3), &id));
    EXPECT_EQ(id, 2u);

    engine.drain();
    const auto &results = engine.results();
    ASSERT_EQ(results.size(), 3u);
    // The rejected query's result precedes the served ones
    // (admission decisions are immediate) and is marked.
    EXPECT_FALSE(results[0].admitted);
    EXPECT_EQ(results[0].queryId, 2u);
    EXPECT_TRUE(results[1].admitted);
    EXPECT_TRUE(results[2].admitted);

    const auto s = engine.summary();
    EXPECT_EQ(s.submitted, 3u);
    EXPECT_EQ(s.admitted, 2u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.completed, 2u);
}

namespace
{

/** Every ServeResult field, one EXPECT each. */
void
expectSameServeResult(const ServeResult &want, const ServeResult &got)
{
    EXPECT_EQ(got.queryId, want.queryId);
    EXPECT_EQ(got.tenant, want.tenant);
    EXPECT_EQ(got.dataset, want.dataset);
    EXPECT_EQ(got.algo, want.algo);
    EXPECT_EQ(got.source, want.source);
    EXPECT_EQ(got.admitted, want.admitted);
    EXPECT_EQ(got.arrival, want.arrival);
    EXPECT_EQ(got.start, want.start);
    EXPECT_EQ(got.finish, want.finish);
    EXPECT_EQ(got.batchSize, want.batchSize);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_EQ(got.resultChecksum, want.resultChecksum);
}

} // namespace

TEST(ResultLog, EveryFieldOfAdmittedAndRejectedResultsRoundTrips)
{
    std::vector<ServeResult> logged;
    ServeResult admitted;
    admitted.queryId = (1ull << 40) + 3;
    admitted.tenant = "a tenant name too long for a short string";
    admitted.dataset = "as00";
    admitted.algo = ServeAlgo::Cc;
    admitted.source = 4'000'000'000u;
    admitted.admitted = true;
    admitted.arrival = 0.125;
    admitted.start = 1.0 / 3.0;
    admitted.finish = 2.5e-7 + 1.0 / 3.0;
    admitted.batchSize = 32;
    admitted.iterations = 70'000;
    admitted.converged = true;
    admitted.resultChecksum = ~0ull - 5;
    logged.push_back(admitted);

    ServeResult rejected;
    rejected.queryId = 4;
    rejected.tenant = "t1";
    rejected.dataset = admitted.tenant; // names share one table
    rejected.algo = ServeAlgo::Sssp;
    rejected.source = 9;
    rejected.arrival = rejected.start = rejected.finish = 7.75;
    logged.push_back(rejected);
    ServeResult again = admitted;
    again.queryId = 5;
    again.algo = ServeAlgo::Ppr;
    again.converged = false;
    logged.push_back(again);

    ResultLog log;
    for (const ServeResult &r : logged)
        log.push_back(r);
    ASSERT_EQ(log.size(), logged.size());
    std::size_t i = 0;
    for (const ServeResult &r : log) {
        SCOPED_TRACE("result " + std::to_string(i));
        expectSameServeResult(logged[i], r);
        expectSameServeResult(logged[i], log[i]);
        ++i;
    }
    EXPECT_EQ(i, logged.size());
    EXPECT_EQ(log.admittedLatencies(),
              (std::vector<double>{admitted.latency(), again.latency()}));
}

TEST(ServeEngine, ResultsCarryTheirQueries)
{
    // Admitted and rejected queries come back with the tenant,
    // dataset, algorithm, source and arrival they were submitted
    // with.
    const auto sys = testSystem();
    ServeOptions opt;
    opt.queueCapacity = 2;
    ServeEngine engine(sys, opt);
    engine.loadDataset("g", testGraph());
    engine.loadDataset("h", testGraph(11));

    std::vector<ServeQuery> queries;
    for (unsigned k = 0; k < 3; ++k) {
        ServeQuery q = bfsQuery(10 + k, 0.5 * k, k == 1 ? "h" : "g");
        q.tenant = "tenant" + std::to_string(2 - k);
        q.algo = k == 2 ? ServeAlgo::Cc : ServeAlgo::Bfs;
        queries.push_back(q);
    }
    for (const ServeQuery &q : queries)
        engine.submit(q);
    engine.drain();
    ASSERT_EQ(engine.results().size(), 3u);
    for (const ServeResult &r : engine.results()) {
        const ServeQuery &q = queries.at(r.queryId);
        EXPECT_EQ(r.tenant, q.tenant);
        EXPECT_EQ(r.dataset, q.dataset);
        EXPECT_EQ(r.algo, q.algo);
        EXPECT_EQ(r.source, q.source);
        EXPECT_EQ(r.arrival, q.arrival);
        EXPECT_EQ(r.admitted, r.queryId < 2);
        EXPECT_EQ(r.batchSize, r.admitted ? 1u : 0u);
    }
}

TEST(ServeEngine, BatchedChecksumsMatchFifoSolo)
{
    // The tenant-visible identity guarantee: the checksum of each
    // query's answer is the same whether it was served alone (FIFO)
    // or coalesced into a multi-source launch (batching).
    const auto sys = testSystem();
    const auto graph = testGraph(11);
    std::vector<NodeId> sources = {3, 50, 120, 7, 3, 200, 64, 9};

    auto checksums = [&](SchedulerKind kind) {
        ServeOptions opt;
        opt.scheduler = kind;
        ServeEngine engine(sys, opt);
        engine.loadDataset("g", graph);
        for (const NodeId s : sources)
            engine.submit(bfsQuery(s));
        engine.drain();
        std::map<std::uint64_t, std::uint64_t> by_id;
        for (const auto &r : engine.results())
            by_id[r.queryId] = r.resultChecksum;
        return by_id;
    };

    const auto fifo = checksums(SchedulerKind::Fifo);
    const auto batched = checksums(SchedulerKind::Batching);
    ASSERT_EQ(fifo.size(), sources.size());
    EXPECT_EQ(fifo, batched);
}

TEST(ServeEngine, BatchingServesBurstInOneLaunch)
{
    const auto sys = testSystem();
    ServeOptions opt;
    opt.scheduler = SchedulerKind::Batching;
    ServeEngine engine(sys, opt);
    engine.loadDataset("g", testGraph());
    for (NodeId s = 0; s < 12; ++s)
        engine.submit(bfsQuery(s * 7));
    engine.drain();

    const auto s = engine.summary();
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.maxBatchSize, 12u);
    EXPECT_EQ(s.completed, 12u);
    // One shared launch: everyone finishes together, so the latency
    // distribution is degenerate.
    EXPECT_DOUBLE_EQ(s.latencyP50, s.latencyP999);
}

TEST(ServeEngine, SoloSsspSkipsLaneWidenedEngine)
{
    // A lone SSSP query must be served by the plain MinPlus engine,
    // and its answer must equal the single-source reference path.
    const auto sys = testSystem();
    Rng rng(5);
    const auto weighted =
        sparse::assignSymmetricWeights(testGraph(13), 1.0f, 64.0f,
                                       rng);
    ServeOptions opt;
    opt.scheduler = SchedulerKind::Batching;
    ServeEngine engine(sys, opt);
    engine.loadDataset("g", weighted);

    ServeQuery q = bfsQuery(17);
    q.algo = ServeAlgo::Sssp;
    engine.submit(q);
    engine.step();
    ASSERT_EQ(engine.results().size(), 1u);
    EXPECT_EQ(engine.results()[0].batchSize, 1u);
    EXPECT_TRUE(engine.results()[0].converged);
}

TEST(LoadGen, OpenLoopStreamIsDeterministic)
{
    LoadGenOptions load;
    load.seed = 99;
    load.queries = 32;
    load.arrivalRate = 1000.0;
    load.mix = {ServeAlgo::Bfs, ServeAlgo::Sssp};

    const auto a = openLoopQueries(load, 300);
    const auto b = openLoopQueries(load, 300);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].source, b[i].source);
        EXPECT_EQ(a[i].algo, b[i].algo);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    }
    // Arrivals are non-decreasing (cumulative exponential gaps).
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].arrival, a[i - 1].arrival);

    LoadGenOptions other = load;
    other.seed = 100;
    const auto c = openLoopQueries(other, 300);
    bool any_different = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_different = any_different || a[i].source != c[i].source;
    EXPECT_TRUE(any_different);
}

TEST(LoadGen, SameSeedSameServingOutcome)
{
    const auto sys = testSystem();
    const auto graph = testGraph(17);

    auto run = [&]() {
        ServeOptions opt;
        opt.scheduler = SchedulerKind::Batching;
        ServeEngine engine(sys, opt);
        engine.loadDataset("g", graph);
        LoadGenOptions load;
        load.seed = 4242;
        load.dataset = "g";
        load.queries = 24;
        load.arrivalRate = 2000.0;
        runOpenLoop(engine,
                    openLoopQueries(load, engine.datasetRows("g")));
        return engine.summary();
    };

    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_DOUBLE_EQ(a.meanBatchSize, b.meanBatchSize);
    EXPECT_DOUBLE_EQ(a.latencyP50, b.latencyP50);
    EXPECT_DOUBLE_EQ(a.latencyP95, b.latencyP95);
    EXPECT_DOUBLE_EQ(a.latencyP99, b.latencyP99);
    EXPECT_DOUBLE_EQ(a.latencyP999, b.latencyP999);
    EXPECT_DOUBLE_EQ(a.queriesPerSec, b.queriesPerSec);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
}

TEST(LoadGen, ClosedLoopOneOutstandingPerClient)
{
    const auto sys = testSystem();
    ServeOptions opt;
    opt.scheduler = SchedulerKind::Batching;
    ServeEngine engine(sys, opt);
    engine.loadDataset("g", testGraph(19));

    LoadGenOptions load;
    load.seed = 7;
    load.dataset = "g";
    load.clients = 4;
    load.queriesPerClient = 3;
    runClosedLoop(engine, load, engine.datasetRows("g"));

    const auto s = engine.summary();
    EXPECT_EQ(s.submitted, 12u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.completed, 12u);
    // At most one outstanding query per client bounds both the
    // queue depth and any batch.
    EXPECT_LE(s.maxQueueDepth, 4u);
    EXPECT_LE(s.maxBatchSize, 4u);
}

TEST(StatsCache, SecondDatasetLoadDoesNoStatsWork)
{
    const auto sys = testSystem();
    const auto graph = testGraph(23);
    sparse::resetStatsCache();

    {
        ServeEngine engine(sys, ServeOptions{});
        engine.loadDataset("g", graph);
        engine.submit(bfsQuery(1));
        engine.drain();
    }
    const auto first = sparse::statsCacheCounters();
    EXPECT_EQ(first.misses, 1u);

    {
        // A fresh engine loading the byte-identical dataset: the
        // stats scan must not run again -- only hits may grow.
        ServeEngine engine(sys, ServeOptions{});
        engine.loadDataset("g", graph);
        engine.submit(bfsQuery(2));
        engine.drain();
    }
    const auto second = sparse::statsCacheCounters();
    EXPECT_EQ(second.misses, first.misses);
    EXPECT_GT(second.hits, first.hits);
    sparse::resetStatsCache();
}
