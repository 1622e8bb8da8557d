/**
 * @file
 * Shared plumbing of the benchmark harness: option parsing, dataset
 * loading with automatic down-scaling, system construction, random
 * input vectors at a target density, and table formatting helpers.
 *
 * Every bench binary accepts:
 *   --dpus N          DPUs for the main experiment (default 2048)
 *   --scale X         force one generation scale for all datasets
 *   --edge-target N   auto-scale target for undirected edges
 *   --datasets a,b,c  override the figure's dataset list
 *   --seed N          RNG seed
 *   --quick           small configuration for smoke runs
 *   --trace-out FILE  Chrome trace-event JSON of the run
 *   --metrics-out FILE  metrics registry dump (JSONL)
 *   --json-out FILE   per-run result records (JSONL, appended)
 *   --check[=FAMS]    pim-verify trace analysis (race,lock,barrier,
 *                     dma); the bench exits 3 when findings exist
 *   --check-out FILE  JSON findings report (implies --check)
 *   --check-inject KIND  fold one synthetic finding into the report
 *                     (exit-code regression tests)
 *   --host-prof[=on|off]  host-performance observatory (wall-clock
 *                     phase profiler + memory footprint); on by
 *                     default whenever telemetry output is requested,
 *                     =off disables it (model metrics are identical
 *                     either way -- the profiler only observes)
 *   --log-level L     silent|normal|verbose
 * (every flag also accepts the --flag=value spelling) plus
 * environment variables ALPHAPIM_SCALE / ALPHAPIM_EDGE_TARGET.
 * Down-scaled datasets keep their degree structure (DESIGN.md), so
 * figure *shapes* are preserved; EXPERIMENTS.md records the scales
 * used for the committed outputs.
 */

#ifndef ALPHA_PIM_BENCH_COMMON_HH
#define ALPHA_PIM_BENCH_COMMON_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/checker.hh"
#include "analysis/imbalance.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "core/phase_times.hh"
#include "perf/record.hh"
#include "sparse/datasets.hh"
#include "sparse/sparse_vector.hh"
#include "upmem/upmem_system.hh"

namespace alphapim::telemetry
{
class RecordingScope;
}

namespace alphapim::bench
{

/** Parsed command-line options. */
struct BenchOptions
{
    unsigned dpus = 2048;
    double scale = 0.0; ///< 0 = auto from edgeTarget
    EdgeId edgeTarget = 200'000;
    EdgeId roadEdgeTarget = 40'000; ///< road graphs: high diameter
    std::uint64_t seed = 42;
    bool quick = false;
    std::vector<std::string> datasets;
    std::string traceOut;   ///< Chrome trace JSON path ("" = off)
    std::string metricsOut; ///< metrics JSONL path ("" = off)
    std::string jsonOut;    ///< per-run record JSONL path ("" = off)
    std::string logLevel;   ///< "" = leave the level alone
    analysis::CheckFlags check; ///< pim-verify flags and checker

    /** Imbalance observer; set when records or metrics are asked
     * for. */
    std::shared_ptr<analysis::ImbalanceObserver> imbalance;

    /** Host-performance observatory; --host-prof=off clears it. Only
     * takes effect when some telemetry output is requested. */
    bool hostProf = true;

    /** The checker and imbalance observer, whichever are on: attach
     * them to every system the bench launches on. */
    upmem::LaunchObservers observers() const;
};

/** Parse argv; prints usage and exits on --help or bad flags.
 * Enables the telemetry tracer / metrics registry and applies the
 * log level as a side effect of the corresponding flags, and builds
 * the observers the flags ask for. */
BenchOptions parseOptions(int argc, char **argv);

/** Effective generation scale for one dataset spec. */
double effectiveScale(const sparse::DatasetSpec &spec,
                      const BenchOptions &opt);

/** Load (generate) one dataset honouring the options. */
sparse::Dataset loadDataset(const std::string &abbreviation,
                            const BenchOptions &opt);

/** Dataset list: the override, or the bench's default. */
std::vector<std::string> datasetList(
    const BenchOptions &opt,
    const std::vector<std::string> &defaults);

/** Build the simulated UPMEM machine with `dpus` DPUs and the
 * options' observers attached. */
upmem::UpmemSystem makeSystem(const BenchOptions &opt, unsigned dpus);

/** Banner with the run configuration (printed by every bench). */
void printRunHeader(const std::string &experiment,
                    const BenchOptions &opt);

/**
 * Deterministic random sparse input vector at (approximately) the
 * requested density.
 */
template <typename Value>
sparse::SparseVector<Value>
randomInputVector(NodeId n, double density, std::uint64_t seed,
                  Value value_lo, Value value_hi)
{
    Rng rng(seed);
    sparse::SparseVector<Value> x(n);
    for (NodeId i = 0; i < n; ++i) {
        if (rng.nextBernoulli(density)) {
            const auto span = static_cast<std::uint64_t>(
                value_hi - value_lo);
            const Value v = span == 0
                ? value_lo
                : static_cast<Value>(
                      value_lo +
                      static_cast<Value>(rng.nextBounded(span + 1)));
            x.append(i, v);
        }
    }
    if (x.nnz() == 0 && n > 0)
        x.append(static_cast<NodeId>(seed % n), value_hi);
    return x;
}

/** Format a PhaseTimes as "load kernel retrieve merge total" cells
 * normalized by `norm` (use 1.0 for absolute seconds). */
std::vector<std::string> phaseCells(const core::PhaseTimes &t,
                                    double norm);

/** Fingerprint of the last dataset returned by loadDataset() for
 * this abbreviation (0 when never loaded). */
std::uint64_t datasetFingerprintFor(const std::string &abbreviation);

/**
 * Appends one schema-tagged run record per measured run to the
 * --json-out JSONL file (no-op without the flag). Each record
 * carries the full provenance manifest -- schema version, git SHA,
 * build type/flags, dataset fingerprint, run configuration -- plus
 * the phase breakdown, the DPU profile when given, the xfer.*
 * transfer volume accrued since begin(), and the host wall-clock
 * duration of the measured region.
 *
 * Usage: construct once per bench, call begin() right before each
 * measured run, emit() right after it.
 */
class RunRecorder
{
  public:
    RunRecorder(BenchOptions opt, std::string bench);
    ~RunRecorder();

    /** Start a measured region: snapshot the xfer counters, the
     * trace-event position and the wall clock, and open a telemetry
     * recording scope so the transfer model counts
     * scatter/gather/broadcast volume even for benches that drive
     * kernels directly (outside PimEngine's LaunchScope). */
    void begin();

    /**
     * Append the record for the run started by the last begin().
     *
     * @param dataset    dataset abbreviation ("-" if n/a)
     * @param variant    strategy / configuration label of this run
     * @param times      accumulated phase times of the run
     * @param profile    accumulated DPU profile, or nullptr
     * @param iterations iteration count of the run (0 if n/a)
     * @param dpusOverride DPU count of this run when it differs
     *                     from opt.dpus (0 = use opt.dpus)
     * @param serve      serving summary (the record's "serve"
     *                   block), or nullptr for non-serving runs
     */
    void emit(const std::string &dataset, const std::string &variant,
              const core::PhaseTimes &times,
              const upmem::LaunchProfile *profile,
              std::size_t iterations, unsigned dpusOverride = 0,
              const perf::ServeSummary *serve = nullptr);

  private:
    const BenchOptions opt_;
    std::string bench_;
    bool began_ = false;
    perf::RunWindow window_;
    std::unique_ptr<telemetry::RecordingScope> recording_;

    /** True when this recorder enabled the tracer itself (records
     * requested but no --trace-out): spans are then recorded purely
     * to reconstruct the per-run execution timeline, and the buffer
     * is cleared at each begin() to keep memory bounded. */
    bool ownsTracer_ = false;
};

/** Write the --trace-out / --metrics-out files if requested, print
 * the pim-verify summary (and write --check-out) when --check is on.
 * Call once at the end of the bench's main().
 * @return the process exit code (3 when --check found defects) */
int writeTelemetryOutputs(const BenchOptions &opt);

} // namespace alphapim::bench

#endif // ALPHA_PIM_BENCH_COMMON_HH
