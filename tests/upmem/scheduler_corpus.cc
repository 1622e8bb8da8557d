#include "scheduler_corpus.hh"

#include "common/random.hh"

namespace alphapim::upmem
{

std::vector<TaskletTrace>
randomTraces(std::uint64_t seed, unsigned tasklets)
{
    Rng rng(seed);
    std::vector<TaskletTrace> traces(tasklets);
    const unsigned phases = 1 + static_cast<unsigned>(
                                    rng.nextBounded(4));
    for (unsigned phase = 0; phase < phases; ++phase) {
        for (unsigned t = 0; t < tasklets; ++t) {
            auto &trace = traces[t];
            const unsigned pieces = static_cast<unsigned>(
                rng.nextBounded(6));
            for (unsigned p = 0; p < pieces; ++p) {
                switch (rng.nextBounded(5)) {
                  case 0:
                    trace.ops(OpClass::IntAdd,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(64)));
                    break;
                  case 1:
                    trace.ops(OpClass::LoadWram,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(16)));
                    break;
                  case 2:
                    trace.dmaRead(8 + static_cast<std::uint32_t>(
                                          rng.nextBounded(2048)));
                    break;
                  case 3:
                    trace.dmaWrite(8 + static_cast<std::uint32_t>(
                                           rng.nextBounded(512)));
                    break;
                  default: {
                    const auto id = static_cast<std::uint32_t>(
                        rng.nextBounded(4));
                    trace.mutexLock(id);
                    trace.ops(OpClass::Compare,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(8)));
                    trace.mutexUnlock(id);
                    break;
                  }
                }
            }
        }
        // Common sync point.
        for (unsigned t = 0; t < tasklets; ++t)
            traces[t].barrier(0);
    }
    return traces;
}

std::vector<TaskletTrace>
goldenTraces(std::uint64_t seed, unsigned tasklets)
{
    Rng rng(seed);
    auto draw = [&](std::uint64_t bound) {
        return static_cast<std::uint32_t>(rng.nextBounded(bound));
    };
    constexpr OpClass longClasses[] = {OpClass::IntAdd, OpClass::Logic,
                                       OpClass::FloatMul,
                                       OpClass::LoadWram};
    constexpr OpClass shortClasses[] = {OpClass::Compare, OpClass::Move,
                                        OpClass::StoreWram,
                                        OpClass::Control};

    std::vector<TaskletTrace> traces(tasklets);
    std::vector<bool> idle(tasklets, false);
    for (unsigned t = 1; t < tasklets; ++t)
        idle[t] = draw(8) == 0;

    const unsigned phases = 1 + draw(3);
    for (unsigned phase = 0; phase < phases; ++phase) {
        for (unsigned t = 0; t < tasklets; ++t) {
            if (idle[t])
                continue;
            auto &trace = traces[t];
            trace.ops(longClasses[draw(4)], 8 + draw(120));
            const unsigned pieces = 2 + draw(6);
            for (unsigned p = 0; p < pieces; ++p) {
                switch (draw(7)) {
                  case 0:
                    trace.ops(longClasses[draw(4)], 8 + draw(200));
                    break;
                  case 1:
                    trace.ops(shortClasses[draw(4)], 1 + draw(7));
                    break;
                  case 2:
                    trace.wramAccess(draw(2) ? OpClass::LoadWram
                                             : OpClass::StoreWram,
                                     1 + draw(12), 64 * draw(64),
                                     4 * (1 + draw(12)));
                    break;
                  case 3:
                    if (draw(2))
                        trace.dmaRead(8 + 8 * draw(256));
                    else
                        trace.dmaWrite(8 + 8 * draw(64));
                    break;
                  case 4: {
                    const auto id = draw(2);
                    trace.mutexLock(id);
                    trace.ops(OpClass::Compare, 1 + draw(10));
                    trace.mutexUnlock(id);
                    break;
                  }
                  default: {
                    // One SpMSpV edge: load the pair, multiply, then
                    // update the output row under its mutex.
                    const auto id = draw(2);
                    const auto addr = 4 * draw(256);
                    trace.ops(OpClass::LoadWram, 2);
                    trace.ops(OpClass::IntMul, 4);
                    trace.mutexLock(id);
                    trace.wramAccess(OpClass::LoadWram, 1, addr, 4);
                    trace.wramAccess(OpClass::StoreWram, 1, addr, 4);
                    trace.mutexUnlock(id);
                    trace.ops(OpClass::Control, 1);
                    break;
                  }
                }
            }
        }
        for (unsigned t = 0; t < tasklets; ++t) {
            if (!idle[t])
                traces[t].barrier(0);
        }
    }
    // Uneven trip counts: instance i of barrier 1 waits only for the
    // tasklets that arrive more than i times.
    for (unsigned t = 0; t < tasklets; ++t) {
        if (idle[t])
            continue;
        const unsigned trips = draw(4);
        for (unsigned i = 0; i < trips; ++i) {
            traces[t].ops(OpClass::Logic, 1 + draw(40));
            traces[t].barrier(1);
        }
    }
    return traces;
}

DpuConfig
goldenConfig(unsigned variant, unsigned tasklets)
{
    DpuConfig cfg;
    cfg.maxTasklets = taskletCeiling;
    cfg.tasklets = tasklets;
    cfg.nonBlockingDma = variant == 1;
    cfg.hardwareAtomics = variant == 2;
    return cfg;
}

} // namespace alphapim::upmem
