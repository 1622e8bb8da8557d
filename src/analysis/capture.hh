/**
 * @file
 * Trace capture: a LaunchObserver that collects the per-tasklet traces
 * every DPU generated, idle ones included, and turns the revolver
 * replay off. The model
 * checker (src/analysis/modelcheck/) attaches one to the small system
 * it builds, to harvest synchronization skeletons from real kernel
 * runs on small abstract partitions without paying for timing
 * simulation. Kernels still execute functionally; their timing comes
 * back zero.
 *
 * onLaunchBegin() opens a launch group; onDpuTraces() runs
 * concurrently from the launch worker pool and stores into it. The
 * capture lives as long as the harvesting code holds it.
 */

#ifndef ALPHA_PIM_ANALYSIS_CAPTURE_HH
#define ALPHA_PIM_ANALYSIS_CAPTURE_HH

#include <mutex>
#include <vector>

#include "upmem/launch_observer.hh"
#include "upmem/trace.hh"

namespace alphapim::analysis
{

/** The traces one launchKernel call generated, indexed by DPU. */
struct CapturedLaunch
{
    std::vector<std::vector<upmem::TaskletTrace>> dpuTraces;
};

/** Thread-safe collector of launch traces. */
class TraceCapture : public upmem::LaunchObserver
{
  public:
    /** Captured launches record every DPU and skip the replay. */
    unsigned
    requirements() const override
    {
        return TracesOfEveryDpu | NoReplay;
    }

    /** Open a new launch group of `num_dpus` DPU slots. */
    void onLaunchBegin(const upmem::LaunchInfo &info,
                       unsigned num_dpus) override;

    /** Store one DPU's traces into the current launch group. */
    void onDpuTraces(unsigned dpu,
                     const std::vector<upmem::TaskletTrace> &traces,
                     const upmem::DpuConfig &cfg) override;

    /** Hand back everything captured so far, leaving none behind. */
    std::vector<CapturedLaunch> take();

  private:
    std::mutex mutex_;
    std::vector<CapturedLaunch> launches_;
};

} // namespace alphapim::analysis

#endif // ALPHA_PIM_ANALYSIS_CAPTURE_HH
