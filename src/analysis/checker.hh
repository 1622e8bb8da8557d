/**
 * @file
 * pim-verify: offline analyzer of recorded tasklet traces.
 *
 * The checker consumes the per-tasklet traces a kernel launch
 * produced for one DPU -- before the replay scheduler consumes them
 * for timing -- and verifies them against the execution model:
 *
 *  - data races: Eraser-style locksets combined with barrier-round
 *    happens-before over the addressed WRAM/MRAM accesses;
 *  - mutex protocol: double lock, unlock of an unheld mutex, mutex
 *    held at tasklet exit, and cyclic lock-acquisition order
 *    (deadlock potential) via a lock graph;
 *  - barrier protocol: divergent barrier sequences between tasklets;
 *  - DMA legality: 8-byte alignment and granularity, the 1..2048-byte
 *    hardware transfer range, and staging within wramChunkBytes.
 *
 * The checker is a LaunchObserver: a tool that wants checked runs
 * builds one (CheckFlags does it for the --check flags) and attaches
 * it to the UpmemSystem it launches on. Its onDpuTraces() hook runs
 * concurrently from the launch worker pool, once per DPU; findings
 * accumulate for the checker's lifetime, which the tool shares with
 * every system it is attached to.
 */

#ifndef ALPHA_PIM_ANALYSIS_CHECKER_HH
#define ALPHA_PIM_ANALYSIS_CHECKER_HH

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/findings.hh"
#include "common/cli.hh"
#include "upmem/dpu_config.hh"
#include "upmem/launch_observer.hh"
#include "upmem/trace.hh"

namespace alphapim::analysis
{

/** Which checker families run. */
struct CheckOptions
{
    bool race = true;
    bool lock = true;
    bool barrier = true;
    bool dma = true;

    /** True when at least one family is selected. */
    bool
    any() const
    {
        return race || lock || barrier || dma;
    }

    /**
     * Parse a comma-separated family list ("race,dma", "all", or an
     * empty string for everything) as accepted by --check=.
     *
     * @param list  the text after "--check="
     * @param out   receives the selection on success
     * @param error receives a message on failure (optional)
     * @return true on success
     */
    static bool parseList(std::string_view list, CheckOptions &out,
                          std::string *error = nullptr);
};

/**
 * Thread-safe accumulator of analysis findings across launches.
 *
 * analyzeDpu() may be called concurrently from the launch worker
 * pool; each call analyzes one DPU's traces on the calling thread
 * and folds the results into the shared report under a lock.
 */
class TraceChecker : public upmem::LaunchObserver
{
  public:
    /** A checker running the `opts` families (none selected: every
     * analyzeDpu() is a no-op). */
    explicit TraceChecker(CheckOptions opts = {}) : opts_(opts) {}

    /** Stored-finding cap across the whole run; occurrences beyond
     * it are still counted, just not retained. */
    static constexpr std::size_t maxStoredFindings = 256;

    /** Stored-finding cap per analyzed DPU. */
    static constexpr std::size_t maxStoredPerDpu = 32;

    /** The family selection. */
    const CheckOptions &options() const { return opts_; }

    /**
     * Analyze the traces of one DPU.
     *
     * @param dpu    DPU index (for finding attribution)
     * @param traces one trace per tasklet, as passed to the scheduler
     * @param cfg    the DPU configuration the traces were recorded for
     */
    void analyzeDpu(unsigned dpu,
                    const std::vector<upmem::TaskletTrace> &traces,
                    const upmem::DpuConfig &cfg);

    /** Launch hook: analyzeDpu() on every DPU of every launch. */
    void
    onDpuTraces(unsigned dpu,
                const std::vector<upmem::TaskletTrace> &traces,
                const upmem::DpuConfig &cfg) override
    {
        analyzeDpu(dpu, traces, cfg);
    }

    /**
     * Fold one externally-produced finding into the report. Used by
     * the model checker front-ends and by the exit-code regression
     * tests (--check-inject); counted like any other occurrence.
     */
    void injectFinding(Finding f);

    /** Snapshot of everything accumulated so far. */
    AnalysisReport report() const;

    /** Total occurrences so far (including unretained ones). */
    std::uint64_t findingCount() const;

    /** Drop all accumulated findings and counts. */
    void clear();

    /** Render the accumulated report as a JSON document. */
    std::string reportJson() const;

    /**
     * Write the JSON report to `path`.
     * @return true when the file was written successfully
     */
    bool writeReport(const std::string &path) const;

  private:
    const CheckOptions opts_;
    mutable std::mutex mutex_;
    AnalysisReport report_;
};

/** One-line console rendering of a finding. */
std::string describeFinding(const Finding &f);

/**
 * Why a DMA trace record violates the hardware transfer contract
 * (granularity, 2048-byte range, staging fit, alignment), or nullptr
 * when it is legal. Shared by the trace checker and the model
 * checker's skeleton lint.
 */
const char *dmaViolation(const upmem::TraceRecord &r,
                         const upmem::DpuConfig &cfg);

/**
 * The --check front end of the CLI and every bench binary: the
 * --check[=FAMILIES], --check-out FILE and --check-inject KIND flags,
 * the checker they ask for, and the epilogue that reports on it.
 */
struct CheckFlags
{
    bool on = false;      ///< some --check flag was given
    std::string families; ///< the --check= list ("" = all)
    std::string out;      ///< --check-out report path ("" = none)
    std::optional<FindingKind> inject; ///< --check-inject kind

    /** The run's checker; set by makeChecker(). */
    std::shared_ptr<TraceChecker> checker;

    /**
     * Consume the current flag of `args` when it is a --check flag.
     * An unknown --check-inject kind is reported on stderr, then
     * `usage` is called.
     *
     * @return false when the flag is not a --check flag
     */
    bool parse(CliArgs &args, const std::function<void()> &usage);

    /**
     * Build the checker for the parsed family list (no-op while no
     * --check flag was given).
     *
     * @return false, with *error set, when the list does not parse
     */
    bool makeChecker(std::string *error);

    /** The epilogue: fold the --check-inject finding into the
     * checker, then finalizeCheckReport() to the --check-out path.
     * @return the process exit status (0 when no --check flag) */
    int finish() const;
};

/**
 * The shared --check epilogue of the CLI and every bench binary:
 * print the finding summary of `checker`, write the JSON report when
 * `report_path` is non-empty, and return the uniform process exit
 * status -- 0 clean, 2 when the report cannot be written, 3 when
 * there are findings.
 */
int finalizeCheckReport(const TraceChecker &checker,
                        const std::string &report_path);

} // namespace alphapim::analysis

#endif // ALPHA_PIM_ANALYSIS_CHECKER_HH
