#include "loadgen.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"

namespace alphapim::serve
{

namespace
{

/** One generated query (arrival stamped by the caller). */
ServeQuery
makeQuery(SplitMix64 &rng, const LoadGenOptions &opt,
          NodeId numVertices, unsigned tenant)
{
    ALPHA_ASSERT(opt.tenants > 0,
                 "load generator needs at least one tenant");
    ServeQuery q;
    q.tenant = "tenant" + std::to_string(tenant % opt.tenants);
    q.dataset = opt.dataset;
    q.algo = opt.mix[rng.next() % opt.mix.size()];
    q.source = static_cast<NodeId>(rng.next() % numVertices);
    q.strategy = opt.strategy;
    return q;
}

} // namespace

std::vector<ServeQuery>
openLoopQueries(const LoadGenOptions &options, NodeId numVertices)
{
    ALPHA_ASSERT(!options.mix.empty(),
                 "load generator needs a non-empty algorithm mix");
    ALPHA_ASSERT(numVertices > 0, "empty dataset");
    SplitMix64 rng(options.seed);
    std::vector<ServeQuery> out;
    out.reserve(options.queries);
    double t = 0.0;
    for (unsigned i = 0; i < options.queries; ++i) {
        if (options.arrivalRate > 0.0 && i > 0) {
            // Inverse-CDF exponential inter-arrival.
            t += -std::log(rng.uniform()) / options.arrivalRate;
        }
        ServeQuery q = makeQuery(rng, options, numVertices, i);
        q.arrival = t;
        out.push_back(std::move(q));
    }
    return out;
}

void
runOpenLoop(ServeEngine &engine, std::vector<ServeQuery> arrivals)
{
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const ServeQuery &a, const ServeQuery &b) {
                         return a.arrival < b.arrival;
                     });
    std::size_t i = 0;
    while (i < arrivals.size() || !engine.idle()) {
        if (engine.idle()) {
            // Queue empty: the next arrival (and its ties) is the
            // next event.
            const Seconds t = arrivals[i].arrival;
            while (i < arrivals.size() && arrivals[i].arrival <= t)
                engine.submit(arrivals[i++]);
        }
        engine.step();
        // Queries that arrived during the batch's service window go
        // through admission control against the now-current queue.
        while (i < arrivals.size() &&
               arrivals[i].arrival <= engine.now())
            engine.submit(arrivals[i++]);
    }
}

void
runClosedLoop(ServeEngine &engine, const LoadGenOptions &options,
              NodeId numVertices)
{
    ALPHA_ASSERT(!options.mix.empty(),
                 "load generator needs a non-empty algorithm mix");
    ALPHA_ASSERT(numVertices > 0, "empty dataset");
    SplitMix64 rng(options.seed);
    std::vector<Seconds> ready(options.clients, 0.0);
    std::vector<unsigned> remaining(options.clients,
                                    options.queriesPerClient);
    std::vector<bool> outstanding(options.clients, false);
    std::map<std::uint64_t, unsigned> owner;
    std::size_t consumed = engine.results().size();

    for (;;) {
        for (unsigned c = 0; c < options.clients; ++c) {
            if (outstanding[c] || remaining[c] == 0)
                continue;
            ServeQuery q = makeQuery(rng, options, numVertices, c);
            q.arrival = ready[c];
            std::uint64_t id = 0;
            const bool admitted = engine.submit(q, &id);
            ALPHA_ASSERT(admitted, "closed loop overflowed the "
                                   "admission queue; raise "
                                   "queueCapacity above clients");
            owner[id] = c;
            outstanding[c] = true;
            --remaining[c];
        }
        if (engine.idle())
            break;
        engine.step();
        for (; consumed < engine.results().size(); ++consumed) {
            const ServeResult &r = engine.results()[consumed];
            const auto it = owner.find(r.queryId);
            if (it == owner.end())
                continue;
            outstanding[it->second] = false;
            ready[it->second] = r.finish;
            owner.erase(it);
        }
    }
}

} // namespace alphapim::serve
