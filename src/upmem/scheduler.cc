#include "scheduler.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace alphapim::upmem
{

namespace
{

/** Why a tasklet's next dispatch is delayed. */
enum class WaitKind : std::uint8_t
{
    None,    ///< only the revolver gap holds it back
    Dma,     ///< waiting for a blocking DMA to complete
    Mutex,   ///< spinning on a held mutex
    Barrier, ///< parked at a barrier
};

/** Stall reason of the idle slots before a dispatch, by the wait kind
 * of the tasklet dispatched (a parked tasklet is never dispatched). */
constexpr StallReason idleReason[] = {
    StallReason::Revolver, StallReason::Memory, StallReason::Sync,
    StallReason::Revolver};

/** Fewest rounds the closed-form fast path retires at once. */
constexpr std::uint32_t fastPathMinRounds = 8;

/** A dispatch key is `ready << keyIndexBits | tasklet index`, so keys
 * order tasklets by ready time, ties to the lowest index. 2^59 cycles
 * (52 years at 350 MHz) leave the ready field ample room. */
constexpr unsigned keyIndexBits = 5;
constexpr std::uint64_t keyIndexMask = (1u << keyIndexBits) - 1;
static_assert(taskletCeiling <= 1u << keyIndexBits,
              "tasklet index must fit the dispatch key's low bits");
static_assert(std::has_single_bit(taskletCeiling),
              "the run queue wraps by masking with the tasklet ceiling");

/** Key of no tasklet; larger than every real key. */
constexpr std::uint64_t noKey = ~std::uint64_t{0};

/** Mutable replay state of one tasklet. */
struct TaskletState
{
    std::size_t rec = 0;        ///< current record index
    std::uint32_t remaining = 0; ///< ops left in the current record
    Cycles ready = 0;           ///< earliest next dispatch cycle
    WaitKind wait = WaitKind::None;
    bool finished = false;
    bool blocks = false;        ///< keeps the fast path shut (see run())
    Cycles finishTime = 0;      ///< cycle after its last dispatch
    Cycles blockedCycles = 0;   ///< DMA / barrier inactive time
    std::uint32_t sigState = 0; ///< RF bank signature LCG state
};

/**
 * Runnable tasklets (not waiting, or spinning on a mutex) as a ring of
 * dispatch keys in ascending order. Slots outside the ring hold noKey,
 * so front() of an empty ring is noKey.
 */
class RunQueue
{
  public:
    RunQueue() { slots_.fill(noKey); }

    unsigned size() const { return size_; }

    /** The smallest key, or noKey when empty. */
    std::uint64_t front() const { return slots_[head_]; }

    /** The i-th smallest key. */
    std::uint64_t
    operator[](unsigned i) const
    {
        return slots_[(head_ + i) % taskletCeiling];
    }

    void
    pop()
    {
        slots_[head_] = noKey;
        head_ = (head_ + 1) % taskletCeiling;
        --size_;
    }

    /** Append a key no smaller than every queued one. */
    void
    push(std::uint64_t key)
    {
        slots_[(head_ + size_) % taskletCeiling] = key;
        ++size_;
    }

    void
    clear()
    {
        slots_.fill(noKey);
        head_ = size_ = 0;
    }

  private:
    std::array<std::uint64_t, taskletCeiling> slots_;
    unsigned head_ = 0;
    unsigned size_ = 0;
};

/** Tasklets waiting on a blocking DMA, with the smallest key cached. */
class DmaWaiters
{
  public:
    /** The smallest key, or noKey when empty. */
    std::uint64_t min() const { return min_; }

    void
    insert(std::uint64_t key)
    {
        keys_[size_++] = key;
        min_ = std::min(min_, key);
    }

    /** Remove the smallest key and rescan for the next one. */
    void
    popMin()
    {
        std::uint64_t next = noKey;
        unsigned kept = 0;
        for (unsigned i = 0; i < size_; ++i) {
            if (keys_[i] != min_) {
                keys_[kept++] = keys_[i];
                next = std::min(next, keys_[i]);
            }
        }
        size_ = kept;
        min_ = next;
    }

  private:
    std::array<std::uint64_t, taskletCeiling> keys_{};
    unsigned size_ = 0;
    std::uint64_t min_ = noKey;
};

} // namespace

DpuProfile
RevolverScheduler::run(const std::vector<TaskletTrace> &traces) const
{
    const auto num = static_cast<unsigned>(traces.size());
    ALPHA_ASSERT(num > 0 && num <= cfg_.maxTasklets,
                 "tasklet count outside the DPU's hardware limit");
    ALPHA_ASSERT(num <= taskletCeiling,
                 "tasklet count above the scheduler's tasklet ceiling");

    DpuProfile profile;
    auto stall = [&](StallReason reason) -> Cycles & {
        return profile.stallCycles[static_cast<std::size_t>(reason)];
    };
    const Cycles gap = cfg_.revolverGap;

    std::vector<TaskletState> state(num);
    unsigned live = 0;
    for (unsigned t = 0; t < num; ++t) {
        state[t].sigState = 0x9e3779b9u * (t + 1);
        state[t].remaining = 0;
        if (traces[t].empty()) {
            state[t].finished = true;
        } else {
            ++live;
            const auto &first = traces[t].records()[0];
            state[t].remaining =
                first.kind == RecordKind::Ops ? first.count : 1;
        }
    }
    if (live == 0)
        return profile;


    struct BarrierInstance
    {
        unsigned instance = 0; ///< how many releases have happened
        unsigned arrived = 0;
        std::uint32_t waiters = 0; ///< parked tasklets, one bit each
    };
    // Flat tables sized by the largest id in the traces keep the
    // dispatch loop free of hash lookups.
    std::uint32_t max_mutex = 0, max_barrier = 0;
    for (unsigned t = 0; t < num; ++t) {
        for (const auto &r : traces[t].records()) {
            if (r.kind == RecordKind::Mutex)
                max_mutex = std::max(max_mutex, r.arg);
            else if (r.kind == RecordKind::Barrier)
                max_barrier = std::max(max_barrier, r.arg);
        }
    }
    std::vector<BarrierInstance> barriers(max_barrier + 1);
    std::vector<int> mutex_holder(max_mutex + 1, -1);

    // How many times each tasklet hits each barrier id, so instance
    // b of a barrier waits for exactly the tasklets that reach it
    // at least b+1 times.
    std::vector<unsigned> barrier_hits(
        static_cast<std::size_t>(num) * (max_barrier + 1), 0);
    for (unsigned t = 0; t < num; ++t) {
        for (const auto &r : traces[t].records()) {
            if (r.kind == RecordKind::Barrier)
                ++barrier_hits[t * (max_barrier + 1) + r.arg];
        }
    }

    /** Number of tasklets that participate in the given barrier
     * instance (arrive at least `instance + 1` times). */
    auto barrier_quorum = [&](std::uint32_t id, unsigned instance) {
        unsigned quorum = 0;
        for (unsigned t = 0; t < num; ++t) {
            if (barrier_hits[t * (max_barrier + 1) + id] > instance)
                ++quorum;
        }
        return quorum;
    };

    auto advance_record = [&](TaskletState &ts, unsigned t) {
        ++ts.rec;
        if (ts.rec >= traces[t].records().size()) {
            ts.finished = true;
            --live;
            return;
        }
        const auto &r = traces[t].records()[ts.rec];
        ts.remaining = r.kind == RecordKind::Ops ? r.count : 1;
    };

    auto count_instr = [&](OpClass cls) {
        ++profile.instrByClass[static_cast<std::size_t>(cls)];
    };

    // ---- Run queue ----
    // The next dispatch goes to the earliest-ready tasklet that is
    // neither finished nor parked at a barrier, ties to the lowest
    // index: the smaller of the run queue's front key and the
    // smallest DMA-waiter key. The run queue stays sorted by pushing
    // at its back only:
    //  - a dispatched tasklet requeues with ready = its dispatch cycle
    //    + revolverGap, later than every queued ready time, because
    //    dispatch cycles strictly increase;
    //  - a barrier release requeues the released tasklets, whose ready
    //    times are equal, in index order;
    //  - a fast-path window requeues the whole runnable set in index
    //    order, with ready times increasing along it.
    RunQueue runnable;
    DmaWaiters dma_waiters;
    auto enqueue = [&](unsigned t) {
        const TaskletState &ts = state[t];
        if (ts.finished || ts.wait == WaitKind::Barrier)
            return;
        const std::uint64_t key = ts.ready << keyIndexBits | t;
        if (ts.wait == WaitKind::Dma)
            dma_waiters.insert(key);
        else
            runnable.push(key);
    };

    // ---- Fast path ----
    // When every non-blocked tasklet sits in a long Ops run and no
    // mutex spinner or barrier release can fire, dispatching is a
    // deterministic round-robin; whole rounds are retired in closed
    // form. Timing is exact (including the revolver-idle pattern);
    // only register-bank hazards are applied in expectation.
    //
    // A tasklet blocks the fast path on its own when it spins on a
    // mutex, or is runnable but not inside an Ops run with at least
    // fastPathMinRounds ops left. `blocking` counts such tasklets; a
    // tasklet's flag is refreshed wherever its state changes (its own
    // dispatch, a barrier release, a fast-path window), and the fast
    // path is tried only when the count is zero.
    unsigned blocking = 0;
    auto refresh_blocks = [&](unsigned t) {
        TaskletState &ts = state[t];
        const bool blocks =
            ts.wait == WaitKind::Mutex ||
            (!ts.finished && ts.wait == WaitKind::None &&
             (traces[t].records()[ts.rec].kind != RecordKind::Ops ||
              ts.remaining < fastPathMinRounds));
        blocking += blocks;
        blocking -= ts.blocks;
        ts.blocks = blocks;
    };
    for (unsigned t = 0; t < num; ++t) {
        refresh_blocks(t);
        enqueue(t);
    }

    // The first cycle no dispatch has used yet.
    Cycles next_slot = 0;
    std::uint32_t last_bank_sig = ~0u;
    bool last_was_alu = false;
    const std::uint32_t bank_mask = (1u << cfg_.rfBankBits) - 1u;
    // The DPU has a single DMA engine: transfers from different
    // tasklets serialize, capping per-DPU MRAM bandwidth at
    // dmaBytesPerCycle.
    Cycles dma_engine_free = 0;
    // Outstanding work (e.g. a trailing DMA) can extend execution
    // past the final dispatch.
    Cycles horizon = 0;

    // With nothing blocking, every runnable tasklet is in an Ops run
    // with at least fastPathMinRounds ops left; only a DMA waiter due
    // too soon can still shut the window.
    auto try_fast_path = [&]() -> bool {
        const unsigned k = runnable.size();
        if (k == 0)
            return false;
        const Cycles start =
            std::max(runnable.front() >> keyIndexBits, next_slot);
        // Round length: packed when the pipeline can be full.
        const Cycles round = std::max<Cycles>(k, gap);
        std::uint64_t rounds = ~std::uint64_t{0};
        if (dma_waiters.min() != noKey) {
            const Cycles dma_wake = dma_waiters.min() >> keyIndexBits;
            if (dma_wake <= start)
                return false; // a DMA-waiter must be serviced first
            rounds = (dma_wake - start) / round;
            if (rounds < fastPathMinRounds)
                return false;
        }

        // The window visits the runnable set in index order.
        std::uint32_t members = 0;
        for (unsigned i = 0; i < k; ++i)
            members |= 1u << (runnable[i] & keyIndexMask);
        unsigned alu_count = 0;
        for (std::uint32_t m = members; m != 0; m &= m - 1) {
            const auto t = static_cast<unsigned>(std::countr_zero(m));
            rounds = std::min<std::uint64_t>(rounds, state[t].remaining);
            alu_count +=
                isAluClass(traces[t].records()[state[t].rec].cls);
        }

        // Leading idle gap before the window is revolver-bound.
        stall(StallReason::Revolver) += start - next_slot;

        // Expected register-bank hazards in packed mode.
        Cycles hazards = 0;
        if (k >= gap && alu_count > 1) {
            const double alu_frac =
                static_cast<double>(alu_count) /
                static_cast<double>(k);
            hazards = static_cast<Cycles>(
                static_cast<double>(rounds * k) * alu_frac *
                alu_frac /
                static_cast<double>(1u << cfg_.rfBankBits));
        }

        const Cycles span = (rounds - 1) * round + k + hazards;
        if (k < gap)
            stall(StallReason::Revolver) += (rounds - 1) * (round - k);
        stall(StallReason::RfHazard) += hazards;
        profile.issuedCycles += rounds * k;

        runnable.clear();
        unsigned j = 0;
        for (std::uint32_t m = members; m != 0; m &= m - 1, ++j) {
            const auto t = static_cast<unsigned>(std::countr_zero(m));
            TaskletState &ts = state[t];
            const TraceRecord &r = traces[t].records()[ts.rec];
            profile.instrByClass[static_cast<std::size_t>(r.cls)] +=
                rounds;
            ts.remaining -= static_cast<std::uint32_t>(rounds);
            const Cycles own_last =
                start + (rounds - 1) * round + j + hazards;
            ts.finishTime = own_last + 1;
            ts.ready = own_last + gap;
            if (ts.remaining == 0)
                advance_record(ts, t);
            refresh_blocks(t);
            enqueue(t);
        }
        next_slot = start + span;
        last_was_alu = false; // window boundary: no carried hazard
        return true;
    };

    while (live > 0) {
        if (blocking == 0 && try_fast_path())
            continue;

        const std::uint64_t best =
            std::min(runnable.front(), dma_waiters.min());
        ALPHA_ASSERT(best != noKey,
                     "deadlock: live tasklets but none runnable");
        if (best == runnable.front())
            runnable.pop();
        else
            dma_waiters.popMin();
        const auto chosen = static_cast<unsigned>(best & keyIndexMask);

        TaskletState &ts = state[chosen];
        Cycles dispatch_at = std::max(ts.ready, next_slot);

        // Attribute the idle gap to the constraint that held the
        // earliest-ready tasklet.
        stall(idleReason[static_cast<std::size_t>(ts.wait)]) +=
            dispatch_at - next_slot;

        const TraceRecord &r = traces[chosen].records()[ts.rec];

        // Register-file bank hazard: back-to-back ALU dispatches with
        // colliding signatures cost one bubble cycle. Only ALU
        // dispatches advance the tasklet's signature generator.
        const bool alu = r.kind == RecordKind::Ops && isAluClass(r.cls);
        const std::uint32_t sig_state =
            ts.sigState * 1103515245u + 12345u;
        const std::uint32_t sig = (sig_state >> 16) & bank_mask;
        ts.sigState = alu ? sig_state : ts.sigState;
        const Cycles bubble = alu & last_was_alu &
                              (dispatch_at == next_slot) &
                              (sig == last_bank_sig);
        stall(StallReason::RfHazard) += bubble;
        dispatch_at += bubble;
        // Read only after another ALU dispatch, which sets it.
        last_bank_sig = sig;
        last_was_alu = alu;

        // Dispatch.
        ++profile.issuedCycles;
        next_slot = dispatch_at + 1;
        ts.finishTime = dispatch_at + 1;
        ts.wait = WaitKind::None;
        ts.ready = dispatch_at + gap;
        // Tasklets whose state this dispatch changed, one bit each.
        std::uint32_t moved = 1u << chosen;

        switch (r.kind) {
          case RecordKind::Ops: {
            count_instr(r.cls);
            if (--ts.remaining == 0)
                advance_record(ts, chosen);
            break;
          }
          case RecordKind::Dma: {
            count_instr(r.cls);
            if (r.cls == OpClass::DmaRead)
                profile.mramReadBytes += r.arg;
            else
                profile.mramWriteBytes += r.arg;
            const auto xfer = static_cast<Cycles>(std::ceil(
                static_cast<double>(r.arg) / cfg_.dmaBytesPerCycle));
            const Cycles start =
                std::max(dispatch_at, dma_engine_free);
            dma_engine_free =
                start + cfg_.dmaEngineOverheadCycles + xfer;
            const Cycles complete = std::max(
                dispatch_at + cfg_.dmaSetupCycles + xfer,
                dma_engine_free);
            horizon = std::max(horizon, complete);
            // Future hardware (nonBlockingDma): the tasklet keeps
            // dispatching while the transfer is in flight.
            if (!cfg_.nonBlockingDma && complete > ts.ready) {
                ts.wait = WaitKind::Dma;
                ts.blockedCycles += complete - ts.ready;
                ts.ready = complete;
            }
            advance_record(ts, chosen);
            break;
          }
          case RecordKind::Mutex: {
            if (r.count == 1) {
                // Lock attempt.
                count_instr(OpClass::MutexLock);
                if (cfg_.hardwareAtomics) {
                    // Future hardware: single-instruction atomic
                    // update, no exclusion window.
                    advance_record(ts, chosen);
                } else if (mutex_holder[r.arg] < 0) {
                    mutex_holder[r.arg] = static_cast<int>(chosen);
                    advance_record(ts, chosen);
                } else {
                    // Spin: retry after the revolver gap; the record
                    // is not consumed.
                    ts.wait = WaitKind::Mutex;
                }
            } else {
                count_instr(OpClass::MutexUnlock);
                if (!cfg_.hardwareAtomics) {
                    ALPHA_ASSERT(mutex_holder[r.arg] ==
                                     static_cast<int>(chosen),
                                 "unlock of a mutex the tasklet "
                                 "does not hold");
                    mutex_holder[r.arg] = -1;
                }
                advance_record(ts, chosen);
            }
            break;
          }
          case RecordKind::Barrier: {
            count_instr(OpClass::Barrier);
            auto &b = barriers[r.arg];
            ++b.arrived;
            const unsigned quorum = barrier_quorum(r.arg, b.instance);
            ALPHA_ASSERT(quorum > 0, "barrier with no participants");
            if (b.arrived >= quorum) {
                // Release everyone parked here (and this tasklet).
                for (std::uint32_t m = b.waiters; m != 0; m &= m - 1) {
                    const auto w =
                        static_cast<unsigned>(std::countr_zero(m));
                    TaskletState &ws = state[w];
                    ws.wait = WaitKind::None;
                    ws.blockedCycles += dispatch_at + 1 - ws.ready;
                    ws.ready = dispatch_at + gap;
                    advance_record(ws, w);
                }
                moved |= b.waiters;
                b.waiters = 0;
                b.arrived = 0;
                ++b.instance;
                advance_record(ts, chosen);
            } else {
                ts.wait = WaitKind::Barrier;
                ts.ready = dispatch_at + 1; // parked; reset on release
                b.waiters |= 1u << chosen;
            }
            break;
          }
        }

        for (std::uint32_t m = moved; m != 0; m &= m - 1) {
            const auto t = static_cast<unsigned>(std::countr_zero(m));
            refresh_blocks(t);
            enqueue(t);
        }
    }

    profile.totalCycles = next_slot;
    if (horizon > profile.totalCycles) {
        // Drain outstanding DMAs: the tail is memory-stall time.
        stall(StallReason::Memory) += horizon - profile.totalCycles;
        profile.totalCycles = horizon;
    }

    // Active-thread integral: a tasklet is active from launch until
    // its last dispatch, minus time parked on DMA or barriers.
    for (unsigned t = 0; t < num; ++t) {
        const auto &ts = state[t];
        if (ts.finishTime > ts.blockedCycles) {
            profile.activeThreadCycles += static_cast<double>(
                ts.finishTime - ts.blockedCycles);
        }
    }
    return profile;
}

} // namespace alphapim::upmem
