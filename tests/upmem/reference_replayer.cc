#include "reference_replayer.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/logging.hh"

namespace alphapim::upmem
{

namespace
{

constexpr Cycles farFuture = std::numeric_limits<Cycles>::max() / 4;

/** A fast-path window retires at least this many whole rounds, and
 * every tasklet in it needs at least this many ops left. */
constexpr std::uint32_t minRounds = 8;

/** Why a tasklet cannot dispatch as soon as the revolver gap allows. */
enum class Wait
{
    None,
    Dma,
    Mutex,
    Barrier,
};

struct Tasklet
{
    std::size_t rec = 0;         ///< current record
    std::uint32_t remaining = 0; ///< dispatches left in that record
    Cycles ready = 0;            ///< earliest next dispatch
    Wait wait = Wait::None;
    bool finished = false;
    Cycles finishTime = 0;       ///< cycle after its last dispatch
    Cycles blockedCycles = 0;    ///< time parked on DMA or a barrier
    std::uint32_t sigState = 0;  ///< register-bank signature LCG
};

struct Barrier
{
    unsigned instance = 0; ///< releases so far
    unsigned arrived = 0;
    std::vector<unsigned> waiters;
};

/** One replay: the state of the DPU and its tasklets. It lives only
 * inside referenceReplay(), whose caller owns the traces. */
class Replay
{
  public:
    Replay(const DpuConfig &cfg, const std::vector<TaskletTrace> &traces)
        : cfg_(cfg), traces_(traces), tasklets_(traces.size())
    {
        for (unsigned t = 0; t < tasklets_.size(); ++t) {
            Tasklet &ts = tasklets_[t];
            ts.sigState = 0x9e3779b9u * (t + 1);
            if (traces_[t].empty()) {
                ts.finished = true;
                continue;
            }
            ++live_;
            ts.remaining = dispatchesOf(traces_[t].records()[0]);
            for (const TraceRecord &r : traces_[t].records()) {
                if (r.kind == RecordKind::Barrier) {
                    auto &hits = barrierHits_[r.arg];
                    hits.resize(tasklets_.size(), 0);
                    ++hits[t];
                }
            }
        }
    }

    DpuProfile
    run()
    {
        while (live_ > 0) {
            if (fastPath())
                continue;
            const unsigned t = earliestReady();
            ALPHA_ASSERT(t < tasklets_.size(),
                         "deadlock: live tasklets but none runnable");
            dispatch(t);
        }
        finish();
        return profile_;
    }

  private:
    static std::uint32_t
    dispatchesOf(const TraceRecord &r)
    {
        return r.kind == RecordKind::Ops ? r.count : 1;
    }

    const TraceRecord &
    record(unsigned t) const
    {
        return traces_[t].records()[tasklets_[t].rec];
    }

    void
    stall(StallReason reason, Cycles cycles)
    {
        profile_.stallCycles[static_cast<std::size_t>(reason)] += cycles;
    }

    /** The first cycle no dispatch has used yet. */
    Cycles nextSlot() const { return anyDispatch_ ? lastDispatch_ + 1 : 0; }

    void
    advance(unsigned t)
    {
        Tasklet &ts = tasklets_[t];
        if (++ts.rec == traces_[t].records().size()) {
            ts.finished = true;
            --live_;
            return;
        }
        ts.remaining = dispatchesOf(record(t));
    }

    /** Try the closed-form window of whole round-robin rounds over
     * every runnable tasklet; false (and no change) when it does not
     * apply. */
    bool
    fastPath()
    {
        std::vector<unsigned> runnable;
        std::uint32_t min_remaining = ~0u;
        Cycles min_ready = farFuture;
        Cycles dma_wake = farFuture;
        unsigned alu_count = 0;
        for (unsigned t = 0; t < tasklets_.size(); ++t) {
            const Tasklet &ts = tasklets_[t];
            if (ts.finished || ts.wait == Wait::Barrier)
                continue;
            if (ts.wait == Wait::Dma) {
                dma_wake = std::min(dma_wake, ts.ready);
                continue;
            }
            if (ts.wait == Wait::Mutex)
                return false;
            const TraceRecord &r = record(t);
            if (r.kind != RecordKind::Ops || ts.remaining < minRounds)
                return false;
            runnable.push_back(t);
            min_remaining = std::min(min_remaining, ts.remaining);
            min_ready = std::min(min_ready, ts.ready);
            if (isAluClass(r.cls))
                ++alu_count;
        }
        if (runnable.empty())
            return false;

        const Cycles start = std::max(min_ready, nextSlot());
        if (dma_wake <= start)
            return false;
        const auto k = static_cast<Cycles>(runnable.size());
        const Cycles round = std::max<Cycles>(k, cfg_.revolverGap);
        std::uint64_t rounds = min_remaining;
        if (dma_wake != farFuture)
            rounds = std::min<std::uint64_t>(rounds,
                                             (dma_wake - start) / round);
        if (rounds < minRounds)
            return false;

        Cycles hazards = 0;
        if (k >= cfg_.revolverGap && alu_count > 1) {
            const double alu_frac = static_cast<double>(alu_count) /
                                    static_cast<double>(k);
            hazards = static_cast<Cycles>(
                static_cast<double>(rounds * k) * alu_frac * alu_frac /
                static_cast<double>(1u << cfg_.rfBankBits));
        }

        stall(StallReason::Revolver, start - nextSlot());
        if (k < cfg_.revolverGap)
            stall(StallReason::Revolver, (rounds - 1) * (round - k));
        stall(StallReason::RfHazard, hazards);
        profile_.issuedCycles += rounds * k;
        for (unsigned j = 0; j < k; ++j) {
            const unsigned t = runnable[j];
            Tasklet &ts = tasklets_[t];
            profile_.instrByClass[static_cast<std::size_t>(
                record(t).cls)] += rounds;
            ts.remaining -= static_cast<std::uint32_t>(rounds);
            const Cycles own_last =
                start + (rounds - 1) * round + j + hazards;
            ts.finishTime = own_last + 1;
            ts.ready = own_last + cfg_.revolverGap;
            if (ts.remaining == 0)
                advance(t);
        }
        lastDispatch_ = start + (rounds - 1) * round + k + hazards - 1;
        anyDispatch_ = true;
        lastWasAlu_ = false;
        return true;
    }

    /** Earliest-ready tasklet that is neither finished nor parked at
     * a barrier, ties to the lowest index; size() when there is none. */
    unsigned
    earliestReady() const
    {
        unsigned best = static_cast<unsigned>(tasklets_.size());
        for (unsigned t = 0; t < tasklets_.size(); ++t) {
            const Tasklet &ts = tasklets_[t];
            if (ts.finished || ts.wait == Wait::Barrier)
                continue;
            if (best == tasklets_.size() ||
                ts.ready < tasklets_[best].ready)
                best = t;
        }
        return best;
    }

    /** Issue one instruction of tasklet t. */
    void
    dispatch(unsigned t)
    {
        Tasklet &ts = tasklets_[t];
        const TraceRecord &r = record(t);
        Cycles at = std::max(ts.ready, nextSlot());

        // The idle slots before it belong to what held t back.
        StallReason idle = StallReason::Revolver;
        if (ts.wait == Wait::Dma)
            idle = StallReason::Memory;
        else if (ts.wait == Wait::Mutex)
            idle = StallReason::Sync;
        stall(idle, at - nextSlot());

        // Back-to-back ALU instructions with colliding register-bank
        // signatures pay one bubble.
        const bool alu = r.kind == RecordKind::Ops && isAluClass(r.cls);
        if (alu) {
            ts.sigState = ts.sigState * 1103515245u + 12345u;
            const std::uint32_t sig =
                (ts.sigState >> 16) & ((1u << cfg_.rfBankBits) - 1u);
            if (lastWasAlu_ && at == nextSlot() && sig == lastBankSig_) {
                stall(StallReason::RfHazard, 1);
                ++at;
            }
            lastBankSig_ = sig;
        }
        lastWasAlu_ = alu;

        ++profile_.issuedCycles;
        lastDispatch_ = at;
        anyDispatch_ = true;
        ts.finishTime = at + 1;
        ts.wait = Wait::None;
        ts.ready = at + cfg_.revolverGap;

        switch (r.kind) {
          case RecordKind::Ops:
            ++profile_.instrByClass[static_cast<std::size_t>(r.cls)];
            if (--ts.remaining == 0)
                advance(t);
            break;
          case RecordKind::Dma:
            dma(ts, r, at);
            advance(t);
            break;
          case RecordKind::Mutex:
            mutex(t, r);
            break;
          case RecordKind::Barrier:
            barrier(t, r, at);
            break;
        }
    }

    /** A blocking DMA through the DPU's one DMA engine. */
    void
    dma(Tasklet &ts, const TraceRecord &r, Cycles at)
    {
        ++profile_.instrByClass[static_cast<std::size_t>(r.cls)];
        if (r.cls == OpClass::DmaRead)
            profile_.mramReadBytes += r.arg;
        else
            profile_.mramWriteBytes += r.arg;
        const auto xfer = static_cast<Cycles>(std::ceil(
            static_cast<double>(r.arg) / cfg_.dmaBytesPerCycle));
        dmaEngineFree_ = std::max(at, dmaEngineFree_) +
                         cfg_.dmaEngineOverheadCycles + xfer;
        const Cycles complete =
            std::max(at + cfg_.dmaSetupCycles + xfer, dmaEngineFree_);
        horizon_ = std::max(horizon_, complete);
        if (!cfg_.nonBlockingDma && complete > ts.ready) {
            ts.wait = Wait::Dma;
            ts.blockedCycles += complete - ts.ready;
            ts.ready = complete;
        }
    }

    /** A lock attempt (which spins while the mutex is held) or an
     * unlock. */
    void
    mutex(unsigned t, const TraceRecord &r)
    {
        if (r.count == 0) {
            ++profile_.instrByClass[static_cast<std::size_t>(
                OpClass::MutexUnlock)];
            if (!cfg_.hardwareAtomics) {
                const auto held = holders_.find(r.arg);
                ALPHA_ASSERT(held != holders_.end() && held->second == t,
                             "unlock of a mutex the tasklet does not "
                             "hold");
                holders_.erase(held);
            }
            advance(t);
            return;
        }
        ++profile_.instrByClass[static_cast<std::size_t>(
            OpClass::MutexLock)];
        if (cfg_.hardwareAtomics) {
            advance(t);
        } else if (!holders_.count(r.arg)) {
            holders_[r.arg] = t;
            advance(t);
        } else {
            tasklets_[t].wait = Wait::Mutex; // retry; record kept
        }
    }

    /** An arrival; the last participant of this instance releases
     * everyone parked on it. */
    void
    barrier(unsigned t, const TraceRecord &r, Cycles at)
    {
        ++profile_.instrByClass[static_cast<std::size_t>(
            OpClass::Barrier)];
        Barrier &b = barriers_[r.arg];
        ++b.arrived;
        unsigned quorum = 0;
        for (unsigned hits : barrierHits_[r.arg])
            quorum += hits > b.instance;
        ALPHA_ASSERT(quorum > 0, "barrier with no participants");
        if (b.arrived < quorum) {
            Tasklet &ts = tasklets_[t];
            ts.wait = Wait::Barrier;
            ts.ready = at + 1;
            b.waiters.push_back(t);
            return;
        }
        for (unsigned w : b.waiters) {
            Tasklet &ws = tasklets_[w];
            ws.wait = Wait::None;
            ws.blockedCycles += at + 1 - ws.ready;
            ws.ready = at + cfg_.revolverGap;
            advance(w);
        }
        b.waiters.clear();
        b.arrived = 0;
        ++b.instance;
        advance(t);
    }

    /** Close the profile: drain outstanding DMAs, integrate activity. */
    void
    finish()
    {
        profile_.totalCycles = nextSlot();
        if (horizon_ > profile_.totalCycles) {
            stall(StallReason::Memory, horizon_ - profile_.totalCycles);
            profile_.totalCycles = horizon_;
        }
        for (const Tasklet &ts : tasklets_) {
            if (ts.finishTime > ts.blockedCycles)
                profile_.activeThreadCycles +=
                    static_cast<double>(ts.finishTime - ts.blockedCycles);
        }
    }

    const DpuConfig cfg_;
    const std::vector<TaskletTrace> &traces_;
    std::vector<Tasklet> tasklets_;
    unsigned live_ = 0;
    std::map<std::uint32_t, std::vector<unsigned>> barrierHits_;
    std::map<std::uint32_t, Barrier> barriers_;
    std::map<std::uint32_t, unsigned> holders_;
    DpuProfile profile_;
    bool anyDispatch_ = false;
    Cycles lastDispatch_ = 0;
    bool lastWasAlu_ = false;
    std::uint32_t lastBankSig_ = ~0u;
    Cycles dmaEngineFree_ = 0;
    Cycles horizon_ = 0;
};

} // namespace

DpuProfile
referenceReplay(const DpuConfig &cfg, const std::vector<TaskletTrace> &traces)
{
    ALPHA_ASSERT(!traces.empty() && traces.size() <= cfg.maxTasklets,
                 "tasklet count outside the DPU's hardware limit");
    return Replay(cfg, traces).run();
}

} // namespace alphapim::upmem
