/**
 * @file
 * The launch-observer seam: analyses that watch kernel launches (the
 * pim-verify trace checker, the model checker's trace capture, the
 * imbalance observatory) implement LaunchObserver and are attached to
 * an UpmemSystem at construction. The system notifies them through
 * three hooks per launch:
 *
 *  - onLaunchBegin(): once, before any DPU is simulated;
 *  - onDpuTraces(): once per DPU, with the per-tasklet traces the
 *    kernel recorded, before the revolver replay consumes them. This
 *    hook runs *concurrently* from the launch worker pool, so
 *    implementations must synchronize their own state;
 *  - onLaunchEnd(): once, on the launching thread, after the serial
 *    profile fold, with every DPU's profile in DPU order.
 *
 * Observers are shared_ptr-owned: the tool, bench or test that builds
 * a system keeps its own reference to read results back, and the
 * system (and every copy of it) keeps the observer alive for as long
 * as it can still launch.
 */

#ifndef ALPHA_PIM_UPMEM_LAUNCH_OBSERVER_HH
#define ALPHA_PIM_UPMEM_LAUNCH_OBSERVER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sparse/partition_shares.hh"
#include "upmem/dpu_config.hh"
#include "upmem/profile.hh"
#include "upmem/trace.hh"

namespace alphapim::upmem
{

/** What a kernel tells the observers about one launch. */
struct LaunchInfo
{
    /** Kernel name ("CSC-2D", ...; empty for anonymous launches). */
    std::string kernel;

    /** The partitioner's per-DPU assignment. Evaluated only by the
     * observers that join it; empty for anonymous launches. */
    std::function<std::vector<sparse::PartitionShare>()> shares;
};

/** Base of every analysis attached to an UpmemSystem. All hooks
 * default to no-ops. */
class LaunchObserver
{
  public:
    LaunchObserver() = default;
    LaunchObserver(const LaunchObserver &) = delete;
    LaunchObserver &operator=(const LaunchObserver &) = delete;
    virtual ~LaunchObserver() = default;

    /** False when launches should skip the revolver replay: the
     * kernels still run functionally, but every profile comes back
     * zero. One observer answering false turns replay off. */
    virtual bool replays() const { return true; }

    /** A launch of `num_dpus` DPUs is about to be simulated. */
    virtual void onLaunchBegin(const LaunchInfo & /*info*/,
                               unsigned /*num_dpus*/)
    {
    }

    /** DPU `dpu` recorded `traces` (one per tasklet) under `cfg`.
     * Called concurrently from the launch worker pool. */
    virtual void onDpuTraces(unsigned /*dpu*/,
                             const std::vector<TaskletTrace> & /*traces*/,
                             const DpuConfig & /*cfg*/)
    {
    }

    /** The launch finished; `profiles` holds every DPU's profile in
     * DPU order (they fold to the launch's LaunchProfile). */
    virtual void onLaunchEnd(const LaunchInfo & /*info*/,
                             const std::vector<DpuProfile> & /*profiles*/,
                             const DpuConfig & /*cfg*/)
    {
    }
};

/** The observers attached to one system. */
using LaunchObservers = std::vector<std::shared_ptr<LaunchObserver>>;

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_LAUNCH_OBSERVER_HH
