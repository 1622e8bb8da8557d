/**
 * @file
 * Trace corpora for the revolver-scheduler tests: the fuzz generator
 * behind the invariant checks and the golden generator behind the
 * committed profile digests. Both the golden-digest tests and the
 * differential tests against the reference replayer draw from them.
 */

#ifndef ALPHA_PIM_TESTS_UPMEM_SCHEDULER_CORPUS_HH
#define ALPHA_PIM_TESTS_UPMEM_SCHEDULER_CORPUS_HH

#include <cstdint>
#include <vector>

#include "upmem/dpu_config.hh"
#include "upmem/trace.hh"

namespace alphapim::upmem
{

/**
 * Random, well-formed trace set: every mutex lock is paired with an
 * unlock; barriers appear at common sync points so every live tasklet
 * participates.
 */
std::vector<TaskletTrace> randomTraces(std::uint64_t seed,
                                       unsigned tasklets);

/**
 * Golden-digest generator. Every live tasklet mixes long Ops runs
 * (>= 8 ops, so the closed-form fast path fires) with short runs,
 * addressed WRAM records, DMAs, contended critical sections on two
 * mutexes and SpMSpV-shaped edge records; all live tasklets meet at
 * barrier 0 once per phase, then arrive at barrier 1 an uneven
 * number of times. Some tasklets stay empty.
 */
std::vector<TaskletTrace> goldenTraces(std::uint64_t seed,
                                       unsigned tasklets);

/** Tasklet counts of the golden corpus, up to the scheduler's
 * tasklet ceiling. */
inline constexpr unsigned goldenTasklets[] = {1, 3, 11, 16, 24, 32};

/** Golden configuration variants: base hardware, then each
 * future-hardware knob on its own. */
inline constexpr unsigned goldenVariants = 3;

/** Hardware of golden variant `variant` running `tasklets` tasklets. */
DpuConfig goldenConfig(unsigned variant, unsigned tasklets);

} // namespace alphapim::upmem

#endif // ALPHA_PIM_TESTS_UPMEM_SCHEDULER_CORPUS_HH
