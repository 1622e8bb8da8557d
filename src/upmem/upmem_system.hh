/**
 * @file
 * Facade over the simulated UPMEM system: owns the configuration and
 * the host worker pool, and exposes kernel launches (trace generation
 * + revolver replay across all DPUs, run on the pool), the transfer
 * model, and the host merge model. Kernel implementations in src/core
 * build on this.
 * Analyses attach as LaunchObservers (launch_observer.hh) at
 * construction; a system built without any runs no analysis.
 */

#ifndef ALPHA_PIM_UPMEM_UPMEM_SYSTEM_HH
#define ALPHA_PIM_UPMEM_UPMEM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/parallel.hh"
#include "common/types.hh"
#include "upmem/dpu_config.hh"
#include "upmem/host_model.hh"
#include "upmem/launch_observer.hh"
#include "upmem/profile.hh"
#include "upmem/scheduler.hh"
#include "upmem/transfer_model.hh"

namespace alphapim::upmem
{

/**
 * What the caller of a launch knows before it runs: the DPUs whose
 * profiles it already has, and what such a DPU still computes.
 */
struct KnownProfiles
{
    /** Empty, or one entry per DPU: the profile DPU `dpu` replays
     * to, or null when it must be recorded and replayed. */
    std::vector<const DpuProfile *> profiles;

    /** Empty, or the functional body of a known DPU: run on the
     * worker pool in place of `generate`, it fills the DPU's outputs
     * and records nothing. Without one, a known DPU (an idle one)
     * takes its profile on the launching thread and gets no pool
     * item. */
    std::function<void(unsigned)> compute;

    /** Empty, or one entry per DPU: how much work recording and
     * replaying DPU `dpu` is, in any unit that grows with it (a CSC
     * SpMSpV DPU's update count). The pool gets the DPUs it runs
     * heaviest first, ties in DPU order, so a launch's longest replay
     * starts first, not last. */
    std::vector<std::uint64_t> weights;
};

/**
 * The simulated PIM machine. One instance per experiment; cheap to
 * construct and copy (copies share the observers and the workers).
 * Thread-safe for concurrent const use when its observers are; a
 * launch made while another holds the workers runs serially.
 */
class UpmemSystem
{
  public:
    /** Build a system with the given configuration, notifying
     * `observers` of every launch. */
    explicit UpmemSystem(SystemConfig cfg, LaunchObservers observers = {});

    /** Full configuration. */
    const SystemConfig &config() const { return cfg_; }

    /** Number of DPUs allocated to kernels. */
    unsigned numDpus() const { return cfg_.numDpus; }

    /** Transfer cost model (host <-> MRAM). */
    const TransferModel &transfer() const { return transfer_; }

    /** Host-side merge cost model. */
    const HostModel &host() const { return host_; }

    /** The union of the observers' LaunchObserver::Requirement flags. */
    unsigned requirements() const { return requirements_; }

    /**
     * Launch a kernel: for each DPU, `generate(dpu, traces)` runs the
     * kernel functionally and records per-tasklet traces (the vector
     * arrives pre-sized to config().dpu.tasklets and cleared); the
     * traces are then replayed through the revolver scheduler, and
     * the observers are notified with `info`. Each host thread records
     * its DPUs into one reused set of trace buffers, so `traces` is
     * valid only during the call; a launch made from inside
     * `generate` records into buffers of its own.
     *
     * DPUs are simulated concurrently on the system's worker pool,
     * sized by the ALPHA_PIM_THREADS limit, so `generate` must only
     * touch per-DPU state.
     *
     * Unless an observer asks for the traces of every DPU, a DPU
     * with a profile in `known` is neither generated, recorded nor
     * replayed: it runs `known.compute`, if there is one, and takes
     * that profile (zero when replay is off), and the other DPUs go
     * to the pool heaviest first by `known.weights`. Otherwise every
     * DPU goes to the pool in DPU order.
     *
     * @param profiles null, or receives every DPU's profile in DPU
     *                 order, as onLaunchEnd sees them
     * @return aggregated launch profile (kernel wall time is
     *         kernelSeconds(profile))
     */
    LaunchProfile launchKernel(
        unsigned num_dpus,
        const std::function<void(unsigned,
                                 std::vector<TaskletTrace> &)> &generate,
        const LaunchInfo &info = {}, const KnownProfiles &known = {},
        std::vector<DpuProfile> *profiles = nullptr) const;

    /** Kernel wall-clock time of a launch, including launch overhead. */
    Seconds
    kernelSeconds(const LaunchProfile &profile) const
    {
        return cfg_.kernelLaunchOverhead +
               static_cast<double>(profile.maxCycles) / cfg_.dpu.clockHz;
    }

  private:
    SystemConfig cfg_;
    TransferModel transfer_;
    HostModel host_;
    LaunchObservers observers_;
    unsigned requirements_ = 0;
    std::shared_ptr<WorkerPool> workers_;
};

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_UPMEM_SYSTEM_HH
