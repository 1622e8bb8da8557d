#include "imbalance.hh"

#include <algorithm>
#include <cmath>

#include "common/stats.hh"
#include "telemetry/metrics.hh"

namespace alphapim::analysis
{

namespace
{

/** Gini coefficient of a non-negative sample vector (0 when the sum
 * is 0 or fewer than two samples). */
double
giniCoefficient(std::vector<double> values)
{
    if (values.size() < 2)
        return 0.0;
    std::sort(values.begin(), values.end());
    double sum = 0.0;
    double weighted = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        sum += values[i];
        weighted += static_cast<double>(i + 1) * values[i];
    }
    if (sum <= 0.0)
        return 0.0;
    const double n = static_cast<double>(values.size());
    return 2.0 * weighted / (n * sum) - (n + 1.0) / n;
}

/** Cycle-weighted accumulator for run-level skew averages. */
struct WeightedMean
{
    double sum = 0.0;
    double weight = 0.0;

    void
    add(double value, double w)
    {
        sum += value * w;
        weight += w;
    }

    double
    value() const
    {
        return weight > 0.0 ? sum / weight : 0.0;
    }
};

} // namespace

SkewStats
computeSkew(const std::vector<double> &values)
{
    SkewStats s;
    s.count = values.size();
    if (values.empty())
        return s;
    RunningStats running;
    for (double v : values) {
        running.add(v);
        s.max = std::max(s.max, v);
    }
    s.mean = running.mean();
    s.cov = s.mean > 0.0 ? running.stddev() / s.mean : 0.0;
    s.gini = giniCoefficient(values);
    s.p99 = percentile(values, 99.0);
    return s;
}

LaunchImbalance
computeLaunchImbalance(const std::string &kernel,
                       const std::vector<upmem::DpuProfile> &profiles,
                       const std::vector<sparse::PartitionShare> &shares,
                       const upmem::DpuConfig &cfg)
{
    LaunchImbalance li;
    li.kernel = kernel;
    li.dpus = static_cast<unsigned>(profiles.size());
    if (profiles.empty())
        return li;

    std::vector<double> cycles, active, mem_stall;
    cycles.reserve(profiles.size());
    active.reserve(profiles.size());
    mem_stall.reserve(profiles.size());
    std::uint64_t total_instr = 0;
    double total_bytes = 0.0;
    for (const auto &p : profiles) {
        cycles.push_back(static_cast<double>(p.totalCycles));
        active.push_back(p.avgActiveThreads());
        mem_stall.push_back(p.stallFraction(upmem::StallReason::Memory));
        total_instr += p.totalInstructions();
        total_bytes +=
            static_cast<double>(p.mramReadBytes + p.mramWriteBytes);
    }
    li.cycles = computeSkew(cycles);
    li.activeThreads = computeSkew(active);
    li.memStallFraction = computeSkew(mem_stall);

    const bool joined = shares.size() == profiles.size();
    if (joined) {
        li.nnz = computeSkew(sparse::shareNnz(shares));
        li.bytes = computeSkew(sparse::shareBytes(shares));
    }

    // Straggler: the critical DPU whose cycles set the launch wall
    // time. Ties break toward the lowest DPU id (deterministic).
    std::size_t straggler = 0;
    for (std::size_t d = 1; d < profiles.size(); ++d) {
        if (profiles[d].totalCycles > profiles[straggler].totalCycles)
            straggler = d;
    }
    const auto &crit = profiles[straggler];
    li.stragglerDpu = static_cast<unsigned>(straggler);
    li.stragglerCyclesOverMean = li.cycles.maxOverMean();
    li.rebalanceSpeedup = li.cycles.maxOverMean();
    std::size_t worst_reason = 0;
    for (std::size_t r = 1; r < crit.stallCycles.size(); ++r) {
        if (crit.stallCycles[r] > crit.stallCycles[worst_reason])
            worst_reason = r;
    }
    if (crit.stallCycles[worst_reason] > 0) {
        li.stragglerStall = upmem::stallReasonName(
            static_cast<upmem::StallReason>(worst_reason));
        li.stragglerStallFraction = crit.stallFraction(
            static_cast<upmem::StallReason>(worst_reason));
    }
    if (joined && li.nnz.mean > 0.0) {
        li.stragglerNnzOverMean =
            static_cast<double>(shares[straggler].nnz) / li.nnz.mean;
    }

    li.totalInstructions = static_cast<double>(total_instr);
    li.mramBytes = total_bytes;
    li.clockHz = cfg.clockHz;

    // Roofline: intensity in instructions per MRAM byte against the
    // fleet's pipeline (1 dispatch/cycle/DPU) and MRAM streaming
    // (dmaBytesPerCycle/DPU) ceilings. A launch that moved no bytes
    // sits at infinite intensity; report intensity 0 with the
    // compute-bound classification.
    auto &roof = li.roofline;
    const double fleet = static_cast<double>(profiles.size());
    roof.pipelineCeilingOpsPerSec = fleet * cfg.clockHz;
    roof.ridgeIntensity =
        cfg.dmaBytesPerCycle > 0.0 ? 1.0 / cfg.dmaBytesPerCycle : 0.0;
    if (total_bytes > 0.0) {
        roof.opIntensity = static_cast<double>(total_instr) / total_bytes;
        roof.bandwidthCeilingOpsPerSec =
            roof.opIntensity * fleet * cfg.dmaBytesPerCycle * cfg.clockHz;
        roof.memoryBound = roof.opIntensity < roof.ridgeIntensity;
    } else {
        roof.bandwidthCeilingOpsPerSec = roof.pipelineCeilingOpsPerSec;
        roof.memoryBound = false;
    }
    if (li.cycles.max > 0.0 && cfg.clockHz > 0.0) {
        const double seconds = li.cycles.max / cfg.clockHz;
        roof.achievedOpsPerSec =
            static_cast<double>(total_instr) / seconds;
    }
    return li;
}

void
ImbalanceObserver::onLaunchEnd(
    const upmem::LaunchInfo &info,
    const std::vector<upmem::DpuProfile> &profiles,
    const upmem::DpuConfig &cfg)
{
    LaunchImbalance li = computeLaunchImbalance(
        info.kernel, profiles,
        info.shares ? info.shares()
                    : std::vector<sparse::PartitionShare>{},
        cfg);

    auto &m = telemetry::metrics();
    if (m.enabled()) {
        m.addCounter("imbalance.launches");
        m.addSample("imbalance.straggler_factor",
                    li.stragglerCyclesOverMean);
        m.addSample("imbalance.cycles_gini", li.cycles.gini);
        m.addSample("imbalance.cycles_cov", li.cycles.cov);
        if (li.nnz.count > 0)
            m.addSample("imbalance.nnz_max_over_mean",
                        li.nnz.maxOverMean());
        m.addSample("roofline.op_intensity", li.roofline.opIntensity);
        m.addSample("roofline.achieved_ops_per_sec",
                    li.roofline.achievedOpsPerSec);
        if (li.roofline.memoryBound)
            m.addCounter("roofline.memory_bound_launches");
    }

    std::lock_guard<std::mutex> lock(mutex_);
    launches_.push_back(std::move(li));
}

void
ImbalanceObserver::beginRun()
{
    std::lock_guard<std::mutex> lock(mutex_);
    launches_.clear();
}

std::vector<LaunchImbalance>
ImbalanceObserver::launches() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return launches_;
}

RunImbalance
ImbalanceObserver::collectRun() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RunImbalance run;
    run.launches = launches_.size();
    if (launches_.empty())
        return run;

    double sum_max_cycles = 0.0;
    double sum_mean_cycles = 0.0;
    double total_instr = 0.0;
    double total_bytes = 0.0;
    double memory_bound = 0.0;
    double clock = 0.0;
    WeightedMean gini, cov, p99, nnz_gini, nnz_max, threads_cov,
        stall_cov;
    const LaunchImbalance *worst = nullptr;
    for (const auto &li : launches_) {
        // Weight each launch by its total DPU-cycles of work so big
        // launches dominate the run-level skew averages.
        const double work =
            li.cycles.mean * static_cast<double>(li.cycles.count);
        sum_max_cycles += li.cycles.max;
        sum_mean_cycles += li.cycles.mean;
        total_instr += li.totalInstructions;
        total_bytes += li.mramBytes;
        clock = std::max(clock, li.clockHz);
        gini.add(li.cycles.gini, work);
        cov.add(li.cycles.cov, work);
        p99.add(li.cycles.p99OverMean(), work);
        if (li.nnz.count > 0) {
            nnz_gini.add(li.nnz.gini, work);
            nnz_max.add(li.nnz.maxOverMean(), work);
        }
        threads_cov.add(li.activeThreads.cov, work);
        stall_cov.add(li.memStallFraction.cov, work);
        if (li.roofline.memoryBound)
            memory_bound += 1.0;
        if (!worst ||
            li.stragglerCyclesOverMean > worst->stragglerCyclesOverMean)
            worst = &li;
        run.roofline.pipelineCeilingOpsPerSec =
            std::max(run.roofline.pipelineCeilingOpsPerSec,
                     li.roofline.pipelineCeilingOpsPerSec);
        run.roofline.ridgeIntensity = li.roofline.ridgeIntensity;
    }
    run.stragglerFactor =
        sum_mean_cycles > 0.0 ? sum_max_cycles / sum_mean_cycles : 1.0;
    run.cyclesGini = gini.value();
    run.cyclesCov = cov.value();
    run.cyclesP99OverMean = p99.value();
    run.nnzGini = nnz_gini.value();
    run.nnzMaxOverMean = nnz_max.value();
    run.activeThreadsCov = threads_cov.value();
    run.memStallCov = stall_cov.value();
    if (worst) {
        run.stragglerKernel = worst->kernel;
        run.stragglerDpu = worst->stragglerDpu;
        run.stragglerCyclesOverMean = worst->stragglerCyclesOverMean;
        run.stragglerStall = worst->stragglerStall;
        run.stragglerStallFraction = worst->stragglerStallFraction;
        run.stragglerNnzOverMean = worst->stragglerNnzOverMean;
    }
    if (clock > 0.0) {
        run.kernelSeconds = sum_max_cycles / clock;
        run.leveledKernelSeconds = sum_mean_cycles / clock;
    }
    if (total_bytes > 0.0)
        run.roofline.opIntensity = total_instr / total_bytes;
    if (run.kernelSeconds > 0.0)
        run.roofline.achievedOpsPerSec = total_instr / run.kernelSeconds;
    run.roofline.memoryBoundFraction =
        memory_bound / static_cast<double>(launches_.size());
    return run;
}

} // namespace alphapim::analysis
