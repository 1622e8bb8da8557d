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
    const TraceRecord *rec = nullptr; ///< current record
    const TraceRecord *end = nullptr; ///< one past the last record
    std::uint32_t remaining = 0; ///< dispatches left in the current record
    std::uint32_t sigState = 0;  ///< RF bank signature LCG state
    Cycles ready = 0;            ///< earliest next dispatch cycle
    Cycles finishTime = 0;       ///< cycle after its last dispatch
    Cycles blockedCycles = 0;    ///< DMA / barrier inactive time
    WaitKind wait = WaitKind::None;
    bool finished = false;
    bool blocks = false;         ///< keeps the fast path shut (see run())
    // The current record, decoded once when it becomes current.
    bool ops = false;            ///< it is an Ops record
    bool alu = false;            ///< ... of an ALU class

    /** Make `*rec` current. */
    void
    load()
    {
        ops = rec->kind == RecordKind::Ops;
        alu = ops && isAluClass(rec->cls);
        remaining = ops ? rec->count : 1;
    }

    /** Move to the next record; false when there is none, so the
     * tasklet has finished. */
    bool
    advance()
    {
        if (++rec == end) {
            finished = true;
            ops = alu = false;
            return false;
        }
        load();
        return true;
    }

    /** True when the next dispatch consumes the tasklet's last op. */
    bool lastOp() const { return remaining == 1 && rec + 1 == end; }

    /**
     * Recompute `blocks` from the current state: the tasklet spins on
     * a mutex, or is runnable but not inside an Ops record with at
     * least fastPathMinRounds ops left. Returns the change to the
     * count of blocking tasklets.
     */
    int
    refreshBlocks()
    {
        const bool now =
            wait == WaitKind::Mutex ||
            (!finished && wait == WaitKind::None &&
             (!ops || remaining < fastPathMinRounds));
        const int delta = int{now} - int{blocks};
        blocks = now;
        return delta;
    }
};

/** One barrier id: its arrivals so far and, per instance, how many
 * tasklets take part in it. */
struct BarrierState
{
    /** Instance b waits for exactly the tasklets that arrive here at
     * least b+1 times. */
    std::vector<unsigned> quorums;
    unsigned instance = 0;     ///< how many releases have happened
    unsigned arrived = 0;
    std::uint32_t waiters = 0; ///< parked tasklets, one bit each
    unsigned hits = 0;         ///< set-up only: one tasklet's arrivals
};

/**
 * The pipeline state each per-instruction dispatch advances, and the
 * counters it charges. It is small enough to copy in O(1): an Ops
 * burst works on a local copy, which the compiler can keep in
 * registers.
 */
struct DispatchClock
{
    Cycles gap = 0;                ///< revolverGap
    std::uint32_t bankMask = 0;    ///< one bit per RF bank signature bit
    Cycles nextSlot = 0;           ///< first cycle no dispatch has used
    std::uint32_t lastBankSig = ~0u;
    bool lastWasAlu = false;
    std::array<Cycles, static_cast<std::size_t>(StallReason::NumReasons)>
        stalls{};

    Cycles &
    stall(StallReason reason)
    {
        return stalls[static_cast<std::size_t>(reason)];
    }

    /**
     * Issue one instruction of `ts`: charge the idle slots before it
     * to `idle`, the constraint that held it back, apply the
     * register-file bank hazard, and return the dispatch cycle.
     */
    Cycles
    issue(TaskletState &ts, StallReason idle)
    {
        Cycles at = std::max(ts.ready, nextSlot);
        stall(idle) += at - nextSlot;

        // Back-to-back ALU dispatches with colliding signatures cost
        // one bubble cycle. Only ALU dispatches advance the tasklet's
        // signature generator.
        const std::uint32_t sig_state =
            ts.sigState * 1103515245u + 12345u;
        const std::uint32_t sig = (sig_state >> 16) & bankMask;
        ts.sigState = ts.alu ? sig_state : ts.sigState;
        const Cycles bubble = ts.alu & lastWasAlu & (at == nextSlot) &
                              (sig == lastBankSig);
        stall(StallReason::RfHazard) += bubble;
        at += bubble;
        // Read only after another ALU dispatch, which sets it.
        lastBankSig = sig;
        lastWasAlu = ts.alu;

        nextSlot = at + 1;
        ts.finishTime = at + 1;
        ts.wait = WaitKind::None;
        ts.ready = at + gap;
        return at;
    }
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

    /**
     * Requeue the front at the back, with key `next(front)`, for as
     * long as `next` returns a key (it must be no smaller than every
     * queued one); stop at the first noKey, with that front still
     * queued. The head is held in a local meanwhile.
     */
    template <typename Next>
    void
    rotateWhile(Next &&next)
    {
        unsigned head = head_;
        const unsigned size = size_;
        for (std::uint64_t key; (key = next(slots_[head])) != noKey;) {
            slots_[head] = noKey;
            slots_[(head + size) % taskletCeiling] = key;
            head = (head + 1) % taskletCeiling;
        }
        head_ = head;
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
    const Cycles gap = cfg_.revolverGap;

    // One pass over every record sizes the flat mutex and barrier
    // tables (no hash lookups while dispatching) and counts each
    // barrier instance's quorum. It also takes the instruction mix and
    // the DMA traffic: every record is dispatched exactly once, Ops
    // records `count` times, whichever path retires it. Only a failed
    // lock attempt, which leaves its record in place, is counted at
    // dispatch.
    std::array<TaskletState, taskletCeiling> state;
    std::vector<BarrierState> barriers;
    std::uint32_t max_mutex = 0;
    unsigned live = 0;
    for (unsigned t = 0; t < num; ++t) {
        TaskletState &ts = state[t];
        const std::vector<TraceRecord> &records = traces[t].records();
        ts.sigState = 0x9e3779b9u * (t + 1);
        ts.rec = records.data();
        ts.end = ts.rec + records.size();
        if (records.empty()) {
            ts.finished = true;
            continue;
        }
        ++live;
        ts.load();
        for (BarrierState &b : barriers)
            b.hits = 0;
        for (const TraceRecord &r : records) {
            profile.instrByClass[static_cast<std::size_t>(r.cls)] +=
                r.kind == RecordKind::Ops ? r.count : 1;
            switch (r.kind) {
              case RecordKind::Ops:
                break;
              case RecordKind::Dma:
                (r.cls == OpClass::DmaRead ? profile.mramReadBytes
                                           : profile.mramWriteBytes) +=
                    r.arg;
                break;
              case RecordKind::Mutex:
                max_mutex = std::max(max_mutex, r.arg);
                break;
              case RecordKind::Barrier: {
                if (r.arg >= barriers.size())
                    barriers.resize(r.arg + std::size_t{1});
                BarrierState &b = barriers[r.arg];
                if (b.hits == b.quorums.size())
                    b.quorums.push_back(0);
                ++b.quorums[b.hits++];
                break;
              }
            }
        }
    }
    if (live == 0)
        return profile;
    std::vector<int> mutex_holder(max_mutex + std::size_t{1}, -1);

    auto advance_record = [&](TaskletState &ts) {
        if (!ts.advance())
            --live;
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
    for (unsigned t = 0; t < num; ++t) {
        blocking += state[t].refreshBlocks();
        enqueue(t);
    }

    DispatchClock clock;
    clock.gap = gap;
    clock.bankMask = (1u << cfg_.rfBankBits) - 1u;
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
            std::max(runnable.front() >> keyIndexBits, clock.nextSlot);
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
            const TaskletState &ts = state[std::countr_zero(m)];
            rounds = std::min<std::uint64_t>(rounds, ts.remaining);
            alu_count += ts.alu;
        }

        // Leading idle gap before the window is revolver-bound.
        clock.stall(StallReason::Revolver) += start - clock.nextSlot;

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
        if (k < gap) {
            clock.stall(StallReason::Revolver) +=
                (rounds - 1) * (round - k);
        }
        clock.stall(StallReason::RfHazard) += hazards;

        runnable.clear();
        unsigned j = 0;
        for (std::uint32_t m = members; m != 0; m &= m - 1, ++j) {
            const auto t = static_cast<unsigned>(std::countr_zero(m));
            TaskletState &ts = state[t];
            ts.remaining -= static_cast<std::uint32_t>(rounds);
            const Cycles own_last =
                start + (rounds - 1) * round + j + hazards;
            ts.finishTime = own_last + 1;
            ts.ready = own_last + gap;
            if (ts.remaining == 0)
                advance_record(ts);
            blocking += ts.refreshBlocks();
            enqueue(t);
        }
        clock.nextSlot = start + span;
        clock.lastWasAlu = false; // window boundary: no carried hazard
        return true;
    };

    // An Ops dispatch: what the generic pick and the burst both do
    // after DispatchClock::issue(). Together they are the one Ops
    // dispatch rule.
    auto retire_op = [&](TaskletState &ts) {
        if (--ts.remaining == 0)
            advance_record(ts);
    };

    // ---- Ops burst ----
    // While something blocks the fast path and the run queue's front
    // is due before every DMA waiter and sits in an Ops record, the
    // generic pick would take that front and dispatch one op of it.
    // The burst does exactly that, without the pick and the kind
    // switch, and requeues it at the back. It stops wherever the
    // generic loop would do anything else: the blocking count reaches
    // zero (so the fast path is tried exactly where it would be), a
    // DMA waiter falls due, a non-Ops record or a spinner reaches the
    // front, or the front's next op is its tasklet's last. It works on
    // copies of the clock and the blocking count, so it starts and
    // stops in O(1).
    auto ops_burst = [&] {
        DispatchClock burst = clock;
        unsigned burst_blocking = blocking;
        const std::uint64_t dma_due = dma_waiters.min();
        runnable.rotateWhile([&](std::uint64_t key) -> std::uint64_t {
            const auto t = static_cast<unsigned>(key & keyIndexMask);
            TaskletState &ts = state[t];
            if (burst_blocking == 0 || key >= dma_due || !ts.ops ||
                ts.lastOp())
                return noKey;
            burst.issue(ts, StallReason::Revolver);
            retire_op(ts);
            burst_blocking += ts.refreshBlocks();
            return ts.ready << keyIndexBits | t;
        });
        clock = burst;
        blocking = burst_blocking;
    };

    while (live > 0) {
        if (blocking == 0) {
            if (try_fast_path())
                continue;
        } else {
            ops_burst();
            if (blocking == 0)
                continue;
        }

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
        const TraceRecord &r = *ts.rec;
        const Cycles dispatch_at = clock.issue(
            ts, idleReason[static_cast<std::size_t>(ts.wait)]);
        // Tasklets whose state this dispatch changed, one bit each.
        std::uint32_t moved = 1u << chosen;

        switch (r.kind) {
          case RecordKind::Ops:
            retire_op(ts);
            break;
          case RecordKind::Dma: {
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
            advance_record(ts);
            break;
          }
          case RecordKind::Mutex: {
            if (r.count == 1) {
                // Lock attempt.
                if (cfg_.hardwareAtomics) {
                    // Future hardware: single-instruction atomic
                    // update, no exclusion window.
                    advance_record(ts);
                } else if (mutex_holder[r.arg] < 0) {
                    mutex_holder[r.arg] = static_cast<int>(chosen);
                    advance_record(ts);
                } else {
                    // Spin: retry after the revolver gap; the record
                    // is not consumed, and the retry is one more
                    // MutexLock instruction.
                    ts.wait = WaitKind::Mutex;
                    ++profile.instrByClass[static_cast<std::size_t>(
                        OpClass::MutexLock)];
                }
            } else {
                if (!cfg_.hardwareAtomics) {
                    ALPHA_ASSERT(mutex_holder[r.arg] ==
                                     static_cast<int>(chosen),
                                 "unlock of a mutex the tasklet "
                                 "does not hold");
                    mutex_holder[r.arg] = -1;
                }
                advance_record(ts);
            }
            break;
          }
          case RecordKind::Barrier: {
            BarrierState &b = barriers[r.arg];
            ++b.arrived;
            ALPHA_ASSERT(b.instance < b.quorums.size(),
                         "barrier with no participants");
            if (b.arrived >= b.quorums[b.instance]) {
                // Release everyone parked here (and this tasklet).
                for (std::uint32_t m = b.waiters; m != 0; m &= m - 1) {
                    TaskletState &ws = state[std::countr_zero(m)];
                    ws.wait = WaitKind::None;
                    ws.blockedCycles += dispatch_at + 1 - ws.ready;
                    ws.ready = dispatch_at + gap;
                    advance_record(ws);
                }
                moved |= b.waiters;
                b.waiters = 0;
                b.arrived = 0;
                ++b.instance;
                advance_record(ts);
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
            blocking += state[t].refreshBlocks();
            enqueue(t);
        }
    }

    profile.totalCycles = clock.nextSlot;
    if (horizon > profile.totalCycles) {
        // Drain outstanding DMAs: the tail is memory-stall time.
        clock.stall(StallReason::Memory) +=
            horizon - profile.totalCycles;
        profile.totalCycles = horizon;
    }
    // Every dispatch slot issues one instruction.
    profile.issuedCycles = profile.totalInstructions();
    profile.stallCycles = clock.stalls;

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
