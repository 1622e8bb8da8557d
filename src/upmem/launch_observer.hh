/**
 * @file
 * The launch-observer seam: analyses that watch kernel launches (the
 * pim-verify trace checker, the model checker's trace capture, the
 * imbalance observatory) implement LaunchObserver and are attached to
 * an UpmemSystem at construction. The system notifies them through
 * three hooks per launch:
 *
 *  - onLaunchBegin(): once, before any DPU is simulated;
 *  - onDpuTraces(): once per recorded DPU, with the per-tasklet
 *    traces the kernel recorded, before the revolver replay consumes
 *    them. The traces are valid only during the call: the system
 *    records the next DPU into the same buffers, so an observer that
 *    keeps them copies them. A DPU whose profile the kernel already
 *    knows is not recorded unless an observer's requirements() ask
 *    for the traces of every DPU: an idle CSC SpMSpV DPU, or any
 *    SpMV DPU after its kernel's first launch. This hook runs
 *    *concurrently* from the launch worker pool, so implementations
 *    must synchronize their own state. The order of the calls is
 *    unspecified. The pool is handed a CSC SpMSpV launch's busy DPUs
 *    heaviest first (most updates), and the DPUs of every other
 *    launch, and of every launch under TracesOfEveryDpu, in DPU
 *    order; a launch of under four DPUs runs serially in that order;
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

    /** What an observer needs from the launches it watches: flags of
     * the bit set requirements() returns, after KaGen's generator
     * requirements. A system honours the union over its observers. */
    enum Requirement : unsigned
    {
        /** Record every DPU and pass its traces to onDpuTraces(), idle
         * ones included. Without it, a DPU whose profile the kernel
         * already knows (an idle CSC DPU; an SpMV DPU after its
         * kernel's first launch) is neither recorded nor replayed. */
        TracesOfEveryDpu = 1u << 0,
        /** Skip the revolver replay: the kernels still run
         * functionally, but every profile comes back zero. */
        NoReplay = 1u << 1,
    };

    /** This observer's Requirement flags (none by default). */
    virtual unsigned requirements() const { return 0; }

    /** A launch of `num_dpus` DPUs is about to be simulated. */
    virtual void onLaunchBegin(const LaunchInfo & /*info*/,
                               unsigned /*num_dpus*/)
    {
    }

    /** DPU `dpu` recorded `traces` (one per tasklet) under `cfg`.
     * Called concurrently from the launch worker pool, for every DPU
     * only under TracesOfEveryDpu. `traces` is valid only during the
     * call; copy what must outlive it. */
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
