/**
 * @file
 * Replay engine for tasklet traces: models the DPU's fine-grained
 * multithreaded "revolver" pipeline and produces the timing and
 * profiling counters of one kernel execution on one DPU.
 *
 * Model summary (paper section 2.3.2 and PIMulator):
 *  - one instruction dispatched per cycle, in order, per DPU;
 *  - consecutive instructions of the same tasklet are at least
 *    `revolverGap` (11) cycles apart (14-stage pipeline without
 *    forwarding or interlocks);
 *  - MRAM DMA is blocking: the issuing tasklet cannot dispatch again
 *    until `dmaSetupCycles + bytes / dmaBytesPerCycle` have elapsed;
 *  - a contended mutex is acquired by spinning: each failed attempt
 *    occupies a dispatch slot with a MutexLock instruction;
 *  - barriers block arrivals until every participating tasklet has
 *    arrived;
 *  - back-to-back ALU instructions whose register-bank signatures
 *    collide pay a one-cycle structural hazard (even/odd register
 *    file banks).
 *
 * Idle dispatch slots are attributed to the constraint that delayed
 * the *earliest-ready* tasklet: DMA wait => Memory, mutex/barrier =>
 * Sync, otherwise the revolver gap itself => Revolver.
 */

#ifndef ALPHA_PIM_UPMEM_SCHEDULER_HH
#define ALPHA_PIM_UPMEM_SCHEDULER_HH

#include <vector>

#include "upmem/dpu_config.hh"
#include "upmem/profile.hh"
#include "upmem/trace.hh"

namespace alphapim::upmem
{

/** Trace replayer for one DPU (stateless; reusable across DPUs). */
class RevolverScheduler
{
  public:
    /** @param cfg DPU microarchitecture parameters (copied) */
    explicit RevolverScheduler(const DpuConfig &cfg) : cfg_(cfg) {}

    /**
     * Replay the traces of one DPU's tasklets.
     *
     * @param traces one trace per tasklet (empty traces are allowed
     *               and model tasklets with no assigned work)
     * @return profile with cycle counts, stalls, and instruction mix
     */
    DpuProfile run(const std::vector<TaskletTrace> &traces) const;

  private:
    DpuConfig cfg_;
};

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_SCHEDULER_HH
