/**
 * @file
 * Configuration of the simulated UPMEM system. Default values follow
 * the paper (section 2.3), the UPMEM SDK documentation, and the PrIM /
 * SparseP measurement studies; see DESIGN.md section 5 for provenance.
 */

#ifndef ALPHA_PIM_UPMEM_DPU_CONFIG_HH
#define ALPHA_PIM_UPMEM_DPU_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace alphapim::upmem
{

/**
 * Most tasklets one DPU replay can hold: the scheduler packs a
 * tasklet's index into the low 5 bits of its dispatch key.
 * DpuConfig::maxTasklets must not exceed it.
 */
inline constexpr unsigned taskletCeiling = 32;

/** Microarchitectural parameters of one DPU. */
struct DpuConfig
{
    /** DPU core clock in Hz (UPMEM v1.x runs at 350 MHz). */
    double clockHz = 350e6;

    /** Hardware thread (tasklet) slots per DPU; at most
     * taskletCeiling. */
    unsigned maxTasklets = 24;

    /**
     * Tasklets actually launched by the kernels. SparseP and PrIM
     * both find 16 saturates the revolver pipeline with headroom.
     */
    unsigned tasklets = 16;

    /**
     * Minimum cycles between two consecutive dispatches of the same
     * tasklet (the 14-stage "revolver" pipeline with no forwarding).
     */
    Cycles revolverGap = 11;

    /** Scratchpad (WRAM) bytes. */
    Bytes wramBytes = 64 * 1024;

    /** DRAM bank (MRAM) bytes. */
    Bytes mramBytes = 64ULL * 1024 * 1024;

    /** Instruction memory (IRAM) bytes. */
    Bytes iramBytes = 24 * 1024;

    /** Fixed *latency* cycles of a blocking MRAM<->WRAM DMA: the
     * issuing tasklet waits setup + transfer before resuming. */
    Cycles dmaSetupCycles = 56;

    /** DMA streaming throughput in bytes per cycle (~700 MB/s). */
    double dmaBytesPerCycle = 2.0;

    /** Engine occupancy overhead per transfer: the DMA engine is
     * busy overhead + transfer cycles per request (setup latency is
     * pipelined with other requests). */
    Cycles dmaEngineOverheadCycles = 8;

    /**
     * Software floating-point emulation costs, in dispatched
     * instructions per operation (the DPU has no FPU; the paper's
     * PPR analysis hinges on this). Calibrated to PrIM's measured
     * DPU float throughput (~3-6 MOPS mul, ~10-14 MOPS add at
     * 350 MHz, i.e. tens of instructions per operation).
     */
    unsigned floatAddInstrs = 25;
    unsigned floatMulInstrs = 60;

    /** 32-bit integer multiply expansion (8x8 hardware multiplier). */
    unsigned intMulInstrs = 4;

    /**
     * Register-file bank selector width: two ALU instructions whose
     * bank signatures collide back-to-back pay a one-cycle structural
     * hazard (even/odd register file split).
     */
    unsigned rfBankBits = 3;

    /** WRAM staging chunk used by streaming kernels, in bytes. */
    Bytes wramChunkBytes = 1024;

    /**
     * Future-hardware knob (paper section 6.4 recommendations):
     * non-blocking DMA lets the issuing tasklet keep dispatching
     * while the transfer is in flight (the engine still serializes
     * transfers, bounding bandwidth).
     */
    bool nonBlockingDma = false;

    /**
     * Future-hardware knob: hardware atomics replace mutex spin
     * loops -- lock attempts always succeed in one instruction.
     */
    bool hardwareAtomics = false;
};

/** Host <-> PIM-DIMM transfer parameters (rank-parallel SDK model). */
struct TransferConfig
{
    /** DPUs sharing one memory rank. */
    unsigned dpusPerRank = 64;

    /** Per-transfer software launch latency, seconds. */
    Seconds launchLatency = 20e-6;

    /**
     * CPU-side setup per distinct DPU buffer (transposition-library
     * overhead); this is what makes large DPU counts pay more for
     * scattered input vectors (paper section 6.3.1, observation 3).
     */
    Seconds perDpuSetup = 1.2e-6;

    /** Per-rank bus bandwidth, host to DPU, bytes/second. */
    double rankBwHostToDpu = 0.7e9;

    /** Per-rank bus bandwidth, DPU to host, bytes/second. */
    double rankBwDpuToHost = 0.6e9;

    /** Aggregate CPU-side copy bandwidth cap, bytes/second. */
    double hostCopyBw = 7.0e9;

    /**
     * Future-hardware knob (paper section 6.4 / conclusion): a
     * direct inter-DPU interconnect exchanges vectors without the
     * host round-trip; every DPU sends/receives in parallel at
     * interDpuBandwidth.
     */
    bool directInterconnect = false;

    /** Per-DPU link bandwidth of the hypothetical interconnect. */
    double interDpuBandwidth = 1.0e9;

    /** Per-exchange latency of the hypothetical interconnect. */
    Seconds interconnectLatency = 2e-6;
};

/** Host CPU parameters for merge / convergence phases. */
struct HostConfig
{
    /** Physical cores participating in OpenMP merges. */
    unsigned cores = 16;

    /** Host core clock, Hz (2x Xeon Silver 4110 at 2.10 GHz). */
    double clockHz = 2.1e9;

    /** Simple merge ops retired per core cycle. */
    double opsPerCycle = 2.0;

    /** Effective host memory bandwidth, bytes/second. */
    double memBandwidth = 20e9;

    /** Fixed overhead per merge/convergence pass, seconds. */
    Seconds passOverhead = 5e-6;
};

/** Full system: DPU micro-architecture + fleet + transfer + host. */
struct SystemConfig
{
    DpuConfig dpu;
    TransferConfig transfer;
    HostConfig host;

    /** Number of DPUs allocated to kernels (paper uses up to 2560). */
    unsigned numDpus = 2048;

    /**
     * Per-launch overhead of dpu_launch + host synchronization,
     * charged to the kernel phase, seconds.
     */
    Seconds kernelLaunchOverhead = 0.4e-3;

    /** Peak UPMEM arithmetic throughput for utilization metrics
     * (GFLOPS-scale; computed with the SparseP methodology). */
    double peakOpsPerSecond = 4.66e9;
};

} // namespace alphapim::upmem

#endif // ALPHA_PIM_UPMEM_DPU_CONFIG_HH
