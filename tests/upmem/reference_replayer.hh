/**
 * @file
 * Reference replayer: the revolver-pipeline timing model of
 * RevolverScheduler written out by its definition, as the oracle of
 * the differential tests.
 *
 * Before every dispatch it scans every tasklet for the closed-form
 * fast path (docs/SIMULATOR.md § Fast path): eligibility, window
 * length and expected register-bank hazards use the same arithmetic
 * as the scheduler. When the fast path does not apply it scans every
 * tasklet again for the earliest-ready one, ties to the lowest index,
 * and dispatches it. It keeps no dispatch keys, gate, run queue or
 * blocking count, so it is slow and plainly specified; the optimized
 * scheduler must match it field for field.
 */

#ifndef ALPHA_PIM_TESTS_UPMEM_REFERENCE_REPLAYER_HH
#define ALPHA_PIM_TESTS_UPMEM_REFERENCE_REPLAYER_HH

#include <vector>

#include "upmem/dpu_config.hh"
#include "upmem/profile.hh"
#include "upmem/trace.hh"

namespace alphapim::upmem
{

/** Replay one DPU's tasklet traces under `cfg` by the definition of
 * the model; the result must equal RevolverScheduler(cfg).run(). */
DpuProfile referenceReplay(const DpuConfig &cfg,
                           const std::vector<TaskletTrace> &traces);

} // namespace alphapim::upmem

#endif // ALPHA_PIM_TESTS_UPMEM_REFERENCE_REPLAYER_HH
