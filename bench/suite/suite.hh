/**
 * @file
 * alphapim_bench: the repository's end-to-end benchmark. Four
 * workloads, each chosen so that one regime the paper characterises
 * dominates it (README.md has the table):
 *
 *   fig07_sweep    BFS/SSSP/PPR x {spmv-only, adaptive} on three
 *                  scale-free graphs -- trace record and replay;
 *   road_traverse  BFS + weighted SSSP on a road lattice -- thousands
 *                  of tiny-frontier launches, so per-launch cost and
 *                  the O(N) host merge dominate;
 *   dense_ppr      spmv-only PPR at 2048 DPUs -- few huge launches,
 *                  replay on the host clock, Load+Retrieve on the
 *                  model clock;
 *   serve_mix      open-loop mixed traffic through ServeEngine's
 *                  batching scheduler over two resident datasets.
 *
 * A run sets the workload up several times (setup_s is the median),
 * runs one untimed warm-up round that verifies every answer against
 * the host reference, then repeats the same round until the time
 * budget is spent. Every measured round must reproduce the warm-up's
 * model times bit for bit, and its answers too (PPR's within a float
 * tolerance, see workloads.cc). The benchmark drives the
 * layers only through their public functions; it links none of the
 * figure-bench plumbing.
 */

#ifndef ALPHA_PIM_BENCH_SUITE_SUITE_HH
#define ALPHA_PIM_BENCH_SUITE_SUITE_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/graph_apps.hh"
#include "sparse/coo.hh"

namespace alphapim::suite
{

/** Configuration of one benchmark process (one workload). */
struct Options
{
    std::string workload;
    /** Drives dataset generation (except serve_mix's resident
     * datasets), source choice and arrivals. */
    std::uint64_t seed = 42;
    /** Measured-phase budget in host seconds; at least one round
     * runs (two in a traced run) however small it is. */
    double seconds = 10.0;
    /** Per-layer run: bench spans, host profiler and metrics
     * registry on alternate rounds; prints per-layer metrics. */
    bool trace = false;
    /** Tiny inputs and one set-up, for the ctest smoke test. */
    bool smoke = false;
    /** Chrome-trace file of the bench spans ("" = none). */
    std::string traceOut;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Op accounting: every op is verified, wrong answers and refused
 * queries are failures. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t wrong = 0;
    std::uint64_t refused = 0;

    /** Count one op whose answer check returned `ok`. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++wrong;
    }

    /** Count one query that admission control refused. */
    void
    refuse()
    {
        ++attempted;
        ++refused;
    }

    std::uint64_t failed() const { return wrong + refused; }
};

/** What a workload run reports. */
struct Outcome
{
    Tally tally;
    std::vector<Metric> metrics;

    /** No wrong answers; refused queries are failures but not
     * incorrect outputs. */
    bool correct() const { return tally.wrong == 0; }
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; fatal() on an unknown name. */
Outcome runWorkload(const Options &options);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const Outcome &outcome);

/** Process exit status for an outcome: 1 on any wrong answer. */
inline int
exitStatus(const Outcome &outcome)
{
    return outcome.correct() ? 0 : 1;
}

/** Exact percentile (type-7 interpolation, as numpy's default) of
 * an unsorted sample set; 0 when empty. */
double percentileOf(std::vector<double> values, double p);

/** FNV-1a over a vector's element bytes -- the serving layer's
 * per-query result checksum. */
template <typename T>
std::uint64_t
fnv1a(const std::vector<T> &v)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto *bytes = reinterpret_cast<const unsigned char *>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Element-wise match within `tol`, infinities matching exactly --
 * the same check as `alphapim --validate` for SSSP and PPR. */
inline bool
closeTo(const std::vector<float> &got, const std::vector<float> &want,
        float tol = 1e-3f)
{
    if (got.size() != want.size())
        return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const float a = got[i];
        const float b = want[i];
        if (std::isinf(a) != std::isinf(b) ||
            (!std::isinf(a) && !(std::abs(a - b) <= tol)))
            return false;
    }
    return true;
}

/** @name Answer checks against the host references in
 * apps/reference_algorithms.hh: BFS and CC exact, SSSP and PPR within
 * 1e-3. */
///@{
bool verifyBfs(const sparse::CooMatrix<float> &adjacency, NodeId source,
               const std::vector<std::uint32_t> &levels);
bool verifySssp(const sparse::CooMatrix<float> &weighted, NodeId source,
                const std::vector<float> &distances);
bool verifyPpr(const sparse::CooMatrix<float> &adjacency, NodeId source,
               const apps::AppConfig &config,
               const std::vector<float> &ranks);
bool verifyCc(const sparse::CooMatrix<float> &adjacency,
              const std::vector<std::uint32_t> &labels);
///@}

/**
 * Wall-clock spans recorded from the bench's own code around each
 * public call (workload, set-up, generate, stats, engine build, round,
 * app run, serve submit, serve step, verify). Kept in memory; written
 * as Chrome trace JSON at the end. Spans open and close on one thread
 * in strict nesting, so a span's self time -- its duration minus its
 * children's -- sums over a subtree to the subtree root's duration.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; ///< host seconds since the log's epoch
        double end = 0.0;
        int parent = -1;    ///< index of the enclosing span, -1 = root
        std::uint64_t op = 0;
    };

    /** Spans record only while enabled; closing an open span always
     * works. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *name, std::uint64_t op);

    /** Close span `id` (which must be the innermost open span). */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-span self seconds, indexed like spans(). */
    std::vector<double> selfSeconds() const;

    /** Write {"traceEvents": [...]} with one complete event per span;
     * false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double now() const;

    bool enabled_ = false;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint64_t op = 0)
        : log_(log), id_(log.open(name, op))
    {
    }
    ~ScopedSpan()
    {
        if (id_ >= 0)
            log_.close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

} // namespace alphapim::suite

#endif // ALPHA_PIM_BENCH_SUITE_SUITE_HH
