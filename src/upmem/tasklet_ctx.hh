/**
 * @file
 * Recording context handed to device kernels, one per tasklet.
 *
 * The context translates kernel-level actions (stream a buffer from
 * MRAM, do a semiring multiply-accumulate, grab the output mutex)
 * into trace records, applying the DPU's software-emulation
 * expansions for floating point and integer multiply.
 */

#ifndef ALPHA_PIM_UPMEM_TASKLET_CTX_HH
#define ALPHA_PIM_UPMEM_TASKLET_CTX_HH

#include <algorithm>

#include "common/types.hh"
#include "upmem/dpu_config.hh"
#include "upmem/trace.hh"

namespace alphapim::upmem
{

/** Hardware DMA granularity: MRAM transfers move 8-byte units. */
inline constexpr std::uint32_t dmaGranularity = 8;

/** Hardware DMA size ceiling: one transfer moves at most 2 KiB. */
inline constexpr std::uint32_t dmaMaxBytes = 2048;

/** Round a DMA size up to the hardware's 8-byte granularity. */
constexpr std::uint32_t
roundUpDma(std::uint32_t bytes)
{
    return (bytes + dmaGranularity - 1) & ~(dmaGranularity - 1);
}

/**
 * Per-tasklet recording facade over TaskletTrace.
 *
 * Kernels should express their work in terms of these primitives so
 * the recorded instruction mix matches what the hand-written UPMEM C
 * kernels in SparseP / ALPHA-PIM would execute.
 *
 * MRAM accesses honour the SDK's DMA constraints: sizes are rounded
 * up to the 8-byte granularity the hardware transfers in, and a
 * single transfer never exceeds 2048 bytes. The addressed variants
 * additionally record where the access lands, feeding the pim-verify
 * trace analyzer (src/analysis/); the unaddressed spellings remain
 * valid and are simply invisible to the race checker.
 */
class TaskletCtx
{
  public:
    /** @param cfg shared DPU configuration; @param trace sink */
    TaskletCtx(const DpuConfig &cfg, TaskletTrace &trace)
        : cfg_(cfg), trace_(trace)
    {
    }

    /** The underlying trace (for the scheduler). */
    TaskletTrace &trace() { return trace_; }

    /**
     * Record `count` operations of class `cls`, applying the
     * software expansion factors for emulated classes.
     */
    void
    op(OpClass cls, std::uint32_t count = 1)
    {
        switch (cls) {
          case OpClass::FloatAdd:
            trace_.ops(OpClass::FloatAdd, count * cfg_.floatAddInstrs);
            break;
          case OpClass::FloatMul:
            trace_.ops(OpClass::FloatMul, count * cfg_.floatMulInstrs);
            break;
          case OpClass::IntMul:
            trace_.ops(OpClass::IntMul, count * cfg_.intMulInstrs);
            break;
          default:
            trace_.ops(cls, count);
            break;
        }
    }

    /** Scratchpad load of `count` words. */
    void loadWram(std::uint32_t count = 1)
    {
        trace_.ops(OpClass::LoadWram, count);
    }

    /** Scratchpad store of `count` words. */
    void storeWram(std::uint32_t count = 1)
    {
        trace_.ops(OpClass::StoreWram, count);
    }

    /** Addressed scratchpad load of WRAM range [addr, addr+bytes):
     * one load instruction per 4-byte word. */
    void
    loadWramAt(std::uint32_t addr, std::uint32_t bytes)
    {
        trace_.wramAccess(OpClass::LoadWram, (bytes + 3) / 4, addr,
                          bytes);
    }

    /** Addressed scratchpad store of WRAM range [addr, addr+bytes). */
    void
    storeWramAt(std::uint32_t addr, std::uint32_t bytes)
    {
        trace_.wramAccess(OpClass::StoreWram, (bytes + 3) / 4, addr,
                          bytes);
    }

    /** Loop/branch overhead instructions. */
    void control(std::uint32_t count = 1)
    {
        trace_.ops(OpClass::Control, count);
    }

    /**
     * Stream `bytes` from MRAM through the WRAM staging buffer:
     * one blocking DMA per wramChunkBytes chunk plus the loop
     * overhead of issuing it. Each chunk is rounded up to the
     * hardware's 8-byte DMA granularity; when `addr` is given the
     * chunks carry consecutive MRAM addresses.
     */
    void
    streamFromMram(Bytes bytes, std::uint64_t addr = traceNoAddr)
    {
        stream(bytes, addr, /*write=*/false);
    }

    /** Stream `bytes` from WRAM back to MRAM in chunks. */
    void
    streamToMram(Bytes bytes, std::uint64_t addr = traceNoAddr)
    {
        stream(bytes, addr, /*write=*/true);
    }

    /** Single random-access MRAM read of `bytes` (irregular access).
     * Sizes are rounded up to the 8-byte DMA granularity and must
     * respect the 2048-byte hardware transfer ceiling. */
    void
    randomMramRead(std::uint32_t bytes,
                   std::uint64_t addr = traceNoAddr)
    {
        ALPHA_ASSERT(bytes > 0 && bytes <= dmaMaxBytes,
                     "MRAM DMA outside the 1..2048 byte range");
        trace_.dmaRead(roundUpDma(bytes), addr);
    }

    /** Single random-access MRAM write of `bytes`. */
    void
    randomMramWrite(std::uint32_t bytes,
                    std::uint64_t addr = traceNoAddr)
    {
        ALPHA_ASSERT(bytes > 0 && bytes <= dmaMaxBytes,
                     "MRAM DMA outside the 1..2048 byte range");
        trace_.dmaWrite(roundUpDma(bytes), addr);
    }

    /** Acquire mutex `id` (contention is resolved by the scheduler). */
    void mutexLock(std::uint32_t id) { trace_.mutexLock(id); }

    /** Release mutex `id`. */
    void mutexUnlock(std::uint32_t id) { trace_.mutexUnlock(id); }

    /** Arrive at barrier `id` (all tasklets must arrive to pass). */
    void barrier(std::uint32_t id) { trace_.barrier(id); }

  private:
    void
    stream(Bytes bytes, std::uint64_t addr, bool write)
    {
        // Cap chunks so they still fit the staging buffer after
        // rounding up to the DMA granularity.
        const Bytes cap = std::max<Bytes>(
            dmaGranularity,
            cfg_.wramChunkBytes & ~static_cast<Bytes>(dmaGranularity - 1));
        while (bytes > 0) {
            const auto chunk =
                static_cast<std::uint32_t>(std::min<Bytes>(bytes, cap));
            const std::uint32_t xfer = roundUpDma(chunk);
            if (write)
                trace_.dmaWrite(xfer, addr);
            else
                trace_.dmaRead(xfer, addr);
            trace_.ops(OpClass::Control, 2);
            bytes -= chunk;
            if (addr != traceNoAddr)
                addr += xfer;
        }
    }

    // A stack-scoped facade: a TaskletCtx must not outlive the
    // configuration or the trace it was built over.
    const DpuConfig &cfg_;
    TaskletTrace &trace_;
};

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_TASKLET_CTX_HH
