/**
 * @file
 * Run-length-encoded tasklet instruction traces.
 *
 * Kernels execute functionally on the host while recording, per
 * tasklet, the abstract instruction stream the equivalent DPU code
 * would issue. The RevolverScheduler then replays the traces of one
 * DPU's tasklets to obtain cycle-accurate-style timing.
 */

#ifndef ALPHA_PIM_UPMEM_TRACE_HH
#define ALPHA_PIM_UPMEM_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "upmem/op.hh"

namespace alphapim::upmem
{

/** Kind of trace record. */
enum class RecordKind : std::uint8_t
{
    Ops,    ///< `count` back-to-back instructions of class `cls`
    Dma,    ///< one blocking DMA instruction moving `bytes`
    Mutex,  ///< lock (count==1) or unlock (count==0) of mutex `id`
    Barrier ///< barrier arrival on barrier `id`
};

/** Sentinel address of records without address information. */
inline constexpr std::uint64_t traceNoAddr = ~0ull;

/**
 * One run-length-encoded trace element.
 *
 * `addr` is optional provenance for the trace analyzer (pim-verify):
 * Dma records may carry the MRAM start address of the transfer, and
 * LoadWram/StoreWram Ops records the WRAM start address of the
 * touched range (with `arg` then holding the range's byte length).
 * Unaddressed records (`addr == traceNoAddr`) stay fully supported;
 * the replay scheduler ignores addresses entirely.
 */
struct TraceRecord
{
    RecordKind kind;
    OpClass cls;         ///< for Ops / Dma (DmaRead or DmaWrite)
    std::uint32_t count; ///< Ops: run length; Mutex: 1=lock 0=unlock
    std::uint32_t arg;   ///< Dma: bytes; Mutex/Barrier: id;
                         ///< addressed Ops: bytes touched
    std::uint64_t addr = traceNoAddr; ///< optional start address

    /** True when the record carries address information. */
    bool addressed() const { return addr != traceNoAddr; }
};

/** Instruction stream of one tasklet. */
class TaskletTrace
{
  public:
    /** Append `count` instructions of class `cls` (merges runs). */
    void
    ops(OpClass cls, std::uint32_t count = 1)
    {
        if (count == 0)
            return;
        if (!records_.empty()) {
            auto &back = records_.back();
            if (back.kind == RecordKind::Ops && back.cls == cls &&
                !back.addressed()) {
                back.count += count;
                return;
            }
        }
        records_.push_back({RecordKind::Ops, cls, count, 0});
    }

    /** Append one blocking DMA read of `bytes` from MRAM,
     * optionally recording the MRAM start address. */
    void
    dmaRead(std::uint32_t bytes, std::uint64_t addr = traceNoAddr)
    {
        records_.push_back(
            {RecordKind::Dma, OpClass::DmaRead, 1, bytes, addr});
    }

    /** Append one blocking DMA write of `bytes` to MRAM,
     * optionally recording the MRAM start address. */
    void
    dmaWrite(std::uint32_t bytes, std::uint64_t addr = traceNoAddr)
    {
        records_.push_back(
            {RecordKind::Dma, OpClass::DmaWrite, 1, bytes, addr});
    }

    /**
     * Append an *addressed* scratchpad access: `count` LoadWram or
     * StoreWram instructions touching WRAM range [addr, addr+bytes).
     * Never merged into neighbouring runs so the address survives.
     */
    void
    wramAccess(OpClass cls, std::uint32_t count, std::uint64_t addr,
               std::uint32_t bytes)
    {
        ALPHA_ASSERT(cls == OpClass::LoadWram ||
                         cls == OpClass::StoreWram,
                     "addressed accesses must be scratchpad ops");
        if (count == 0)
            return;
        records_.push_back({RecordKind::Ops, cls, count, bytes, addr});
    }

    /** Append a mutex acquire on mutex `id`. */
    void
    mutexLock(std::uint32_t id)
    {
        records_.push_back({RecordKind::Mutex, OpClass::MutexLock, 1, id});
    }

    /** Append a mutex release on mutex `id`. */
    void
    mutexUnlock(std::uint32_t id)
    {
        records_.push_back(
            {RecordKind::Mutex, OpClass::MutexUnlock, 0, id});
    }

    /** Append a barrier arrival on barrier `id`. */
    void
    barrier(std::uint32_t id)
    {
        records_.push_back({RecordKind::Barrier, OpClass::Barrier, 1, id});
    }

    /** Recorded records. */
    const std::vector<TraceRecord> &records() const { return records_; }

    /** True when nothing was recorded. */
    bool empty() const { return records_.empty(); }

    /** Total dispatched instructions ignoring spin retries. */
    std::uint64_t
    instructionCount() const
    {
        std::uint64_t n = 0;
        for (const auto &r : records_)
            n += (r.kind == RecordKind::Ops) ? r.count : 1;
        return n;
    }

    /** Drop all records. */
    void clear() { records_.clear(); }

  private:
    std::vector<TraceRecord> records_;
};

/**
 * A trace sink that records nothing: TaskletTrace's appends as empty
 * inline functions. A kernel body compiled over it (through
 * BasicTaskletCtx) keeps only its functional work, which is all a DPU
 * whose profile is already known has left to do.
 */
struct NullTrace
{
    void ops(OpClass, std::uint32_t = 1) {}
    void dmaRead(std::uint32_t, std::uint64_t = traceNoAddr) {}
    void dmaWrite(std::uint32_t, std::uint64_t = traceNoAddr) {}
    void wramAccess(OpClass, std::uint32_t, std::uint64_t, std::uint32_t) {}
    void mutexLock(std::uint32_t) {}
    void mutexUnlock(std::uint32_t) {}
    void barrier(std::uint32_t) {}
};

/** Every tasklet's sink of a DPU that records nothing: `traces[t]`
 * for a body written over a vector of TaskletTraces. */
struct NullTraces
{
    NullTrace &operator[](std::size_t) { return sink; }

    NullTrace sink;
};

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_TRACE_HH
