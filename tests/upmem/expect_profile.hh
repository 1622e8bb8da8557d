/**
 * @file
 * Field-for-field DpuProfile comparison for the tests that require
 * two profiles to be identical: the scheduler against its reference
 * replayer, and cached idle-DPU profiles against replayed ones.
 */

#ifndef ALPHA_PIM_TESTS_UPMEM_EXPECT_PROFILE_HH
#define ALPHA_PIM_TESTS_UPMEM_EXPECT_PROFILE_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "upmem/profile.hh"

namespace alphapim::upmem
{

/** Every profile field, activeThreadCycles by its bit pattern. */
inline void
expectSameProfile(const DpuProfile &want, const DpuProfile &got,
                  const std::string &label)
{
    EXPECT_EQ(got.totalCycles, want.totalCycles) << label;
    EXPECT_EQ(got.issuedCycles, want.issuedCycles) << label;
    EXPECT_EQ(got.stallCycles, want.stallCycles) << label;
    EXPECT_EQ(got.instrByClass, want.instrByClass) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.activeThreadCycles),
              std::bit_cast<std::uint64_t>(want.activeThreadCycles))
        << label;
    EXPECT_EQ(got.mramReadBytes, want.mramReadBytes) << label;
    EXPECT_EQ(got.mramWriteBytes, want.mramWriteBytes) << label;
}

} // namespace alphapim::upmem

#endif // ALPHA_PIM_TESTS_UPMEM_EXPECT_PROFILE_HH
