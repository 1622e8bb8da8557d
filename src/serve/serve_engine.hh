/**
 * @file
 * The in-process graph query serving engine: datasets are loaded
 * once and stay resident (partition plans and graph statistics
 * cached, keyed by dataset fingerprint), tenant queries flow through
 * a bounded admission-controlled queue, and a pluggable scheduler
 * decides which queued queries each launch serves. The batching
 * scheduler coalesces same-graph BFS/SSSP queries into one
 * multi-source launch over the lane semirings (apps/multi_source.hh),
 * whose per-lane results are bit-identical to sequential runs.
 *
 * Serving is a deterministic discrete-event simulation on the model
 * clock: a single server processes one batch at a time, service time
 * is the launch's modeled Load+Kernel+Retrieve+Merge seconds, and
 * arrivals come time-stamped from the load generator. Latency
 * distributions are therefore exactly reproducible -- the serving
 * baseline gates with zero tolerance, like every other model-time
 * number in this repo.
 */

#ifndef ALPHA_PIM_SERVE_SERVE_ENGINE_HH
#define ALPHA_PIM_SERVE_SERVE_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/multi_source.hh"
#include "perf/record.hh"
#include "serve/scheduler.hh"
#include "sparse/coo.hh"

namespace alphapim::serve
{

/** Serving configuration. */
struct ServeOptions
{
    /** DPUs each resident engine uses; 0 = all the system has. */
    unsigned dpus = 0;

    /** Admitted-queue bound; arrivals past it are rejected. */
    unsigned queueCapacity = 64;

    /** Scheduling policy. */
    SchedulerKind scheduler = SchedulerKind::Batching;

    /** Per-query algorithm knobs (PPR damping etc.); the strategy
     * and switchThreshold fields are ignored -- strategy is
     * per-query and the threshold comes from the cached stats. */
    apps::AppConfig app;
};

/**
 * Every result an engine hands back, in completion order, at 64 bytes
 * a query: the tenant and dataset names are interned, and a deque
 * grows without copying. Reads rebuild each ServeResult by value.
 */
class ResultLog
{
  public:
    /** Walks the log in order, yielding ServeResults by value. */
    class Iterator
    {
      public:
        Iterator(const ResultLog &log, std::size_t index)
            : log_(&log), index_(index)
        {
        }

        ServeResult operator*() const { return (*log_)[index_]; }

        Iterator &
        operator++()
        {
            ++index_;
            return *this;
        }

        bool operator==(const Iterator &other) const = default;

      private:
        const ResultLog *log_;
        std::size_t index_;
    };

    /** Results logged so far. */
    std::size_t size() const { return records_.size(); }

    /** Result `i`, in completion order. */
    ServeResult operator[](std::size_t i) const;

    Iterator begin() const { return {*this, 0}; }
    Iterator end() const { return {*this, size()}; }

    /** Log one result. */
    void push_back(const ServeResult &result);

    /** The admitted queries' latencies, in completion order. */
    std::vector<double> admittedLatencies() const;

  private:
    /** One ServeResult, names replaced by their indices in names_. */
    struct Record
    {
        std::uint64_t queryId;
        Seconds arrival;
        Seconds start;
        Seconds finish;
        std::uint64_t resultChecksum;
        NodeId source;
        std::uint32_t tenant;
        std::uint32_t dataset;
        std::uint32_t batchSize;
        std::uint32_t iterations;
        std::uint8_t algo;
        bool admitted;
        bool converged;
    };

    std::uint32_t intern(const std::string &name);

    std::deque<Record> records_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> index_;
};

/** In-process serving engine over resident partitioned graphs. */
class ServeEngine
{
  public:
    ServeEngine(const upmem::UpmemSystem &sys, ServeOptions options);
    ~ServeEngine();

    /**
     * Register a dataset under `name`: fingerprints it, warms the
     * shared graph-statistics cache, and precomputes the column-
     * normalized matrix PPR engines run over. Kernel engines (and
     * their partition plans) materialize lazily per (dataset,
     * algorithm, strategy) on first use and stay resident.
     */
    void loadDataset(const std::string &name,
                     const sparse::CooMatrix<float> &adjacency);

    /** True when `name` has been loaded. */
    bool hasDataset(const std::string &name) const;

    /** Vertex count of a loaded dataset. */
    NodeId datasetRows(const std::string &name) const;

    /** Fingerprint of a loaded dataset (perf::datasetFingerprint). */
    std::uint64_t datasetFingerprint(const std::string &name) const;

    /**
     * Submit one query at its arrival time (must be >= every earlier
     * submission's arrival). Returns true when admitted; a rejected
     * query produces an admitted=false result in results() and
     * counts toward serve.admission_rejects. `id` (optional)
     * receives the query's engine-assigned id either way.
     */
    bool submit(const ServeQuery &query, std::uint64_t *id = nullptr);

    /** True when no admitted queries await service. */
    bool idle() const { return queue_.empty(); }

    /** Serve one scheduler-selected batch (engine must not be idle);
     * completed results append to results(). */
    void step();

    /** Drain the queue: step() until idle. */
    void drain();

    /** Completed (and rejected) results, in completion order. */
    const ResultLog &results() const { return results_; }

    /** The model clock: completion time of the last served batch. */
    Seconds now() const { return clock_; }

    /** Load/Kernel/Retrieve/Merge model time summed over every
     * served batch (the run record's "times" block). */
    const core::PhaseTimes &phaseTotals() const
    {
        return phaseTotals_;
    }

    /** Algorithm iterations summed over every served batch. */
    std::uint64_t servedIterations() const
    {
        return servedIterations_;
    }

    /** Queries currently queued. */
    std::size_t queueDepth() const { return queue_.size(); }

    /** The active scheduling policy's name. */
    const char *schedulerName() const { return scheduler_->name(); }

    /** Condense this run's serving outcomes (admission counts, batch
     * size distribution, model-time latency percentiles, throughput)
     * into the schema-v6 record block. */
    perf::ServeSummary summary() const;

  private:
    struct Dataset;
    struct Engines;

    Dataset &dataset(const std::string &name);
    const Dataset &dataset(const std::string &name) const;
    void serveBatch(const std::vector<PendingQuery> &batch);

    const upmem::UpmemSystem &sys_;
    ServeOptions options_;
    std::unique_ptr<Scheduler> scheduler_;
    std::map<std::string, std::unique_ptr<Dataset>> datasets_;
    std::deque<PendingQuery> queue_;
    ResultLog results_;
    Seconds clock_ = 0.0;
    core::PhaseTimes phaseTotals_;
    std::uint64_t servedIterations_ = 0;
    std::uint64_t nextId_ = 0;
    std::uint64_t submitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t batchedQueries_ = 0;
    std::uint64_t maxBatchSize_ = 0;
    std::uint64_t maxQueueDepth_ = 0;
    double firstArrival_ = -1.0;
    double lastArrival_ = -std::numeric_limits<double>::infinity();
};

} // namespace alphapim::serve

#endif // ALPHA_PIM_SERVE_SERVE_ENGINE_HH
