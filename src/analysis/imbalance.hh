/**
 * @file
 * Load-imbalance & roofline observatory: per-launch fleet distribution
 * analytics over the per-DPU profiles UpmemSystem folds, joined with
 * the partitioner's per-DPU row/nnz/byte assignment.
 *
 * The paper's central analytical claim is that graph workloads on real
 * PIM are dominated by *distribution* effects: nnz skew across DPUs,
 * straggler DPUs serializing the launch barrier, and kernels sitting
 * on the wrong side of the compute/bandwidth balance. This module
 * turns the raw per-DPU counters into that lens:
 *
 *  - skew statistics (CoV, Gini, p99/mean, max/mean) per metric;
 *  - straggler identification attributing the critical DPU's excess
 *    cycles to a stall reason and its partition share ("DPU 37: 2.4x
 *    mean cycles, 71% memory-stall, holds 3.1x mean nnz");
 *  - an Amdahl-style rebalance bound (kernel time if work were
 *    perfectly leveled across the fleet);
 *  - a modeled roofline point per launch (operational intensity vs
 *    the pipeline-throughput and MRAM-bandwidth ceilings of the cycle
 *    model) classifying each launch compute- vs memory-bound.
 *
 * The ImbalanceObserver is a LaunchObserver: the bench harness and the
 * CLI build one when run records or metrics are requested and attach
 * it to their systems. Only its onLaunchEnd() hook does work, on the
 * launching thread; it joins the kernel's LaunchInfo shares with the
 * folded per-DPU profiles. Launches accumulate until beginRun(), for
 * as long as the owner holds the observer.
 */

#ifndef ALPHA_PIM_ANALYSIS_IMBALANCE_HH
#define ALPHA_PIM_ANALYSIS_IMBALANCE_HH

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "sparse/partition_shares.hh"
#include "upmem/dpu_config.hh"
#include "upmem/launch_observer.hh"
#include "upmem/profile.hh"

namespace alphapim::analysis
{

/** Distribution skew summary of one per-DPU metric. */
struct SkewStats
{
    /** Number of DPUs sampled (idle DPUs included: their zeros *are*
     * the imbalance). */
    std::size_t count = 0;

    /** Arithmetic mean over all DPUs. */
    double mean = 0.0;

    /** Largest per-DPU value. */
    double max = 0.0;

    /** Coefficient of variation (stddev / mean; 0 when mean is 0). */
    double cov = 0.0;

    /** Gini coefficient in [0, 1): 0 = perfectly leveled. */
    double gini = 0.0;

    /** 99th percentile (type-7 estimator). */
    double p99 = 0.0;

    /** Straggler factor: max over mean (1.0 when leveled or empty). */
    double
    maxOverMean() const
    {
        return mean > 0.0 ? max / mean : 1.0;
    }

    /** Tail factor: p99 over mean (1.0 when leveled or empty). */
    double
    p99OverMean() const
    {
        return mean > 0.0 ? p99 / mean : 1.0;
    }
};

/** Skew summary of a per-DPU sample vector. */
SkewStats computeSkew(const std::vector<double> &values);

/** One launch's position against the modeled roofline. */
struct RooflinePoint
{
    /** Operational intensity: dispatched instructions per MRAM byte
     * moved (DMA read + write traffic). */
    double opIntensity = 0.0;

    /** Fleet-wide achieved throughput, instructions per second, at
     * the launch's modeled wall time (slowest DPU). */
    double achievedOpsPerSec = 0.0;

    /** Pipeline ceiling: one dispatch per cycle per DPU. */
    double pipelineCeilingOpsPerSec = 0.0;

    /** Bandwidth ceiling at this intensity: opIntensity x fleet MRAM
     * bandwidth. */
    double bandwidthCeilingOpsPerSec = 0.0;

    /** Ridge intensity where the two ceilings meet
     * (1 / dmaBytesPerCycle instructions per byte). */
    double ridgeIntensity = 0.0;

    /** True when the launch sits left of the ridge: the MRAM
     * bandwidth ceiling binds before the pipeline does. */
    bool memoryBound = false;
};

/** Fleet distribution analytics for one kernel launch. */
struct LaunchImbalance
{
    /** Kernel name ("CSC-2D", ...; empty when no context was set). */
    std::string kernel;

    /** DPUs the launch spanned (including idle ones). */
    unsigned dpus = 0;

    /** Skew of per-DPU total cycles. */
    SkewStats cycles;

    /** Skew of per-DPU average active tasklets. */
    SkewStats activeThreads;

    /** Skew of per-DPU memory-stall fractions. */
    SkewStats memStallFraction;

    /** Skew of per-DPU assigned nonzeros (count 0 without context). */
    SkewStats nnz;

    /** Skew of per-DPU assigned MRAM bytes (count 0 without
     * context). */
    SkewStats bytes;

    /** The critical DPU: largest total cycles. */
    unsigned stragglerDpu = 0;

    /** Straggler's cycles over the fleet mean. */
    double stragglerCyclesOverMean = 1.0;

    /** Straggler's dominant stall reason name ("memory", "revolver",
     * "rf-hazard", "sync"; empty when it never stalled). */
    std::string stragglerStall;

    /** Fraction of the straggler's cycles spent in that stall. */
    double stragglerStallFraction = 0.0;

    /** Straggler's nnz share over the mean share (0 without
     * context). */
    double stragglerNnzOverMean = 0.0;

    /** Amdahl-style rebalance bound: launch speedup if per-DPU cycles
     * were leveled to the mean (max / mean cycles). */
    double rebalanceSpeedup = 1.0;

    /** Fleet-wide dispatched instructions in this launch. */
    double totalInstructions = 0.0;

    /** Fleet-wide MRAM DMA traffic (read + write bytes). */
    double mramBytes = 0.0;

    /** DPU clock the launch was modeled at (for time conversion). */
    double clockHz = 0.0;

    /** Modeled roofline position of this launch. */
    RooflinePoint roofline;
};

/** Run-level roofline aggregate. */
struct RunRoofline
{
    /** Run-wide operational intensity (total instr / total bytes). */
    double opIntensity = 0.0;

    /** Throughput over the summed per-launch wall times. */
    double achievedOpsPerSec = 0.0;

    /** Pipeline ceiling of the widest launch seen. */
    double pipelineCeilingOpsPerSec = 0.0;

    /** Ridge intensity of the cycle model. */
    double ridgeIntensity = 0.0;

    /** Fraction of launches classified memory-bound. */
    double memoryBoundFraction = 0.0;
};

/** Imbalance analytics accumulated over a measured run. */
struct RunImbalance
{
    /** Kernel launches observed. */
    std::size_t launches = 0;

    /** Run straggler factor: summed critical-DPU cycles over summed
     * mean cycles — the fleet-leveling headroom of the whole run. */
    double stragglerFactor = 1.0;

    /** Cycle-weighted mean of per-launch cycle Gini. */
    double cyclesGini = 0.0;

    /** Cycle-weighted mean of per-launch cycle CoV. */
    double cyclesCov = 0.0;

    /** Cycle-weighted mean of per-launch p99/mean cycles. */
    double cyclesP99OverMean = 0.0;

    /** Cycle-weighted mean of per-launch nnz Gini. */
    double nnzGini = 0.0;

    /** Cycle-weighted mean of per-launch nnz max/mean. */
    double nnzMaxOverMean = 0.0;

    /** Cycle-weighted mean of per-launch active-thread CoV. */
    double activeThreadsCov = 0.0;

    /** Cycle-weighted mean of per-launch memory-stall-fraction CoV. */
    double memStallCov = 0.0;

    /** Kernel of the worst launch (largest straggler factor). */
    std::string stragglerKernel;

    /** Critical DPU of the worst launch. */
    unsigned stragglerDpu = 0;

    /** That DPU's cycles over its launch's mean. */
    double stragglerCyclesOverMean = 1.0;

    /** That DPU's dominant stall reason name. */
    std::string stragglerStall;

    /** Fraction of that DPU's cycles in the dominant stall. */
    double stragglerStallFraction = 0.0;

    /** That DPU's nnz share over its launch's mean share. */
    double stragglerNnzOverMean = 0.0;

    /** Modeled kernel wall time: summed slowest-DPU cycles / clock. */
    double kernelSeconds = 0.0;

    /** Rebalance bound: kernel wall time if every launch's work were
     * leveled to its mean (summed mean cycles / clock). */
    double leveledKernelSeconds = 0.0;

    /** Run-level roofline aggregate. */
    RunRoofline roofline;
};

/**
 * Fleet distribution analytics for one launch, pure function form
 * (unit-testable without an observer).
 *
 * @param kernel   kernel name for the report ("" when unknown)
 * @param profiles per-DPU profiles as folded by the launcher
 * @param shares   the partitioner's per-DPU assignment; empty or
 *                 size-mismatched vectors disable the join
 * @param cfg      DPU micro-architecture for the roofline ceilings
 */
LaunchImbalance
computeLaunchImbalance(const std::string &kernel,
                       const std::vector<upmem::DpuProfile> &profiles,
                       const std::vector<sparse::PartitionShare> &shares,
                       const upmem::DpuConfig &cfg);

/**
 * Imbalance observer: one LaunchImbalance per observed launch.
 * beginRun() / collectRun() bracket a measured region (the bench
 * harness and CLI wrap their timed iterations).
 */
class ImbalanceObserver : public upmem::LaunchObserver
{
  public:
    /** Analyze one launch's folded per-DPU profiles joined with the
     * kernel's partition shares; accumulates run state and emits
     * imbalance.* / roofline.* metrics when the registry is enabled. */
    void onLaunchEnd(const upmem::LaunchInfo &info,
                     const std::vector<upmem::DpuProfile> &profiles,
                     const upmem::DpuConfig &cfg) override;

    /** Drop accumulated launches and start a fresh measured region. */
    void beginRun();

    /** Aggregate everything recorded since beginRun(). */
    RunImbalance collectRun() const;

    /** Per-launch analytics since beginRun() (test/report access). */
    std::vector<LaunchImbalance> launches() const;

  private:
    mutable std::mutex mutex_;
    std::vector<LaunchImbalance> launches_;
};

} // namespace alphapim::analysis

#endif // ALPHA_PIM_ANALYSIS_IMBALANCE_HH
