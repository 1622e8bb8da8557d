#include "attribution.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace alphapim::perf
{

const char *
bottleneckName(Bottleneck kind)
{
    switch (kind) {
      case Bottleneck::TransferBound:
        return "transfer-bound";
      case Bottleneck::ImbalanceBound:
        return "imbalance-bound";
      case Bottleneck::MemoryBound:
        return "memory-bound";
      case Bottleneck::PipelineBound:
        return "pipeline-bound";
      case Bottleneck::ComputeBound:
        return "compute-bound";
      case Bottleneck::HostBound:
        return "host-bound";
      default:
        return "unknown";
    }
}

namespace
{

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

/** "+31.0%" relative change; "new" when the old value was zero. */
std::string
pctChange(double oldv, double newv)
{
    if (oldv == 0.0)
        return newv == 0.0 ? "+0.0%" : "new";
    return fmt("%+.1f%%", (newv - oldv) / oldv * 100.0);
}

/** "2.10x" ratio; "new" when the old value was zero. */
std::string
ratio(double oldv, double newv)
{
    if (oldv == 0.0)
        return newv == 0.0 ? "1.00x" : "new";
    return fmt("%.2fx", newv / oldv);
}

struct PhaseDelta
{
    const char *metric; ///< metrics-registry spelling of the phase
    double oldv = 0.0;
    double newv = 0.0;
    double delta = 0.0;
};

} // namespace

Attribution
attributeRegression(const RunRecord &older, const RunRecord &newer)
{
    Attribution out;
    const double old_total = older.times.total();
    const double new_total = newer.times.total();
    const double d_total = new_total - old_total;
    if (d_total <= 0.0)
        return out;

    PhaseDelta phases[] = {
        {"phase.load_seconds", older.times.load, newer.times.load},
        {"phase.kernel_seconds", older.times.kernel,
         newer.times.kernel},
        {"phase.retrieve_seconds", older.times.retrieve,
         newer.times.retrieve},
        {"phase.merge_seconds", older.times.merge,
         newer.times.merge},
    };
    for (auto &p : phases)
        p.delta = p.newv - p.oldv;

    const double transfer_delta = phases[0].delta + phases[2].delta;
    const double kernel_delta = phases[1].delta;
    const double host_delta = phases[3].delta;

    // ---- classify ----
    if (transfer_delta >= kernel_delta &&
        transfer_delta >= host_delta && transfer_delta > 0.0) {
        out.kind = Bottleneck::TransferBound;
    } else if (host_delta >= kernel_delta && host_delta > 0.0) {
        out.kind = Bottleneck::HostBound;
    } else if (kernel_delta > 0.0) {
        // Subdivide the kernel regression by what grew most in the
        // cycle accounting: per-DPU skew, real work, MRAM stalls, or
        // pipeline (revolver + register-file + sync) stalls.
        out.kind = Bottleneck::ComputeBound;
        // Skew first, the most specific class: the straggler factor
        // grew and the perfectly-leveled bound did not -- the fleet
        // got slower because one DPU did, not because the work did.
        if (older.imbalance && newer.imbalance &&
            newer.imbalance->stragglerFactor >
                older.imbalance->stragglerFactor * 1.05) {
            const double d_leveled =
                newer.imbalance->leveledKernelSeconds -
                older.imbalance->leveledKernelSeconds;
            if (d_leveled < 0.5 * kernel_delta)
                out.kind = Bottleneck::ImbalanceBound;
        }
        if (out.kind == Bottleneck::ComputeBound &&
            older.hasProfile && newer.hasProfile) {
            auto stall_cycles = [](const RunRecord &r,
                                   const char *reason) {
                const auto it = r.stallFractions.find(reason);
                return it == r.stallFractions.end()
                    ? 0.0
                    : it->second *
                          static_cast<double>(r.totalCycles);
            };
            const double d_issued =
                static_cast<double>(newer.issuedCycles) -
                static_cast<double>(older.issuedCycles);
            const double d_memory =
                stall_cycles(newer, "memory") -
                stall_cycles(older, "memory");
            double d_pipeline = 0.0;
            // Record keys use stallReasonName() spellings
            // ("rf-hazard"), not the metric-name spellings.
            for (const char *reason :
                 {"revolver", "rf-hazard", "sync"}) {
                d_pipeline += stall_cycles(newer, reason) -
                              stall_cycles(older, reason);
            }
            if (d_memory >= d_issued && d_memory >= d_pipeline &&
                d_memory > 0.0)
                out.kind = Bottleneck::MemoryBound;
            else if (d_pipeline >= d_issued && d_pipeline > 0.0)
                out.kind = Bottleneck::PipelineBound;
        }
    } else {
        out.kind = Bottleneck::Unknown;
    }

    // ---- ranked evidence: phases by contribution ----
    std::sort(std::begin(phases), std::end(phases),
              [](const PhaseDelta &a, const PhaseDelta &b) {
                  return a.delta > b.delta;
              });
    for (const auto &p : phases) {
        if (p.delta <= 0.0)
            continue;
        out.evidence.push_back(fmt(
            "%s %s (%.3gs -> %.3gs), %.0f%% of the regression",
            p.metric, pctChange(p.oldv, p.newv).c_str(), p.oldv,
            p.newv, p.delta / d_total * 100.0));
    }

    // ---- supporting evidence: iterations, transfers, stalls ----
    if (newer.iterations != older.iterations) {
        out.evidence.push_back(
            fmt("iterations %llu -> %llu",
                static_cast<unsigned long long>(older.iterations),
                static_cast<unsigned long long>(newer.iterations)));
    }
    std::string transfer_detail;
    if (older.xfer && newer.xfer) {
        const struct
        {
            const char *name;
            const char *label;
            std::uint64_t oldv, newv;
        } volumes[] = {
            {"xfer.broadcast_bytes", "broadcast bytes",
             older.xfer->broadcastBytes, newer.xfer->broadcastBytes},
            {"xfer.scatter_bytes", "scatter bytes",
             older.xfer->scatterBytes, newer.xfer->scatterBytes},
            {"xfer.gather_bytes", "gather bytes",
             older.xfer->gatherBytes, newer.xfer->gatherBytes},
        };
        double best_ratio = 1.0;
        for (const auto &v : volumes) {
            if (v.newv == v.oldv)
                continue;
            const auto oldd = static_cast<double>(v.oldv);
            const auto newd = static_cast<double>(v.newv);
            out.evidence.push_back(
                fmt("%s %s (%.3g -> %.3g)", v.name,
                    ratio(oldd, newd).c_str(), oldd, newd));
            const double r = oldd == 0.0 ? (newd > 0.0 ? 1e9 : 1.0)
                                         : newd / oldd;
            if (r > best_ratio) {
                best_ratio = r;
                transfer_detail = std::string(v.label) + " " +
                                  ratio(oldd, newd);
            }
        }
    }
    if (older.timeline && newer.timeline) {
        // Timeline context: how serialized the execution is and how
        // much of the critical path the transfers own.
        out.evidence.push_back(fmt(
            "overlap fraction %.2f -> %.2f; serialized transfers "
            "%.0f%% of the critical path",
            older.timeline->overlapFraction,
            newer.timeline->overlapFraction,
            newer.timeline->transferCriticalFraction * 100.0));
    }
    std::string imbalance_detail;
    if (older.imbalance && newer.imbalance) {
        const auto &oi = *older.imbalance;
        const auto &ni = *newer.imbalance;
        if (ni.stragglerFactor != oi.stragglerFactor) {
            imbalance_detail =
                fmt("straggler factor %.2fx -> %.2fx",
                    oi.stragglerFactor, ni.stragglerFactor);
            std::string straggler = analysis::describeStraggler(ni);
            if (!ni.stragglerKernel.empty())
                straggler += " (" + ni.stragglerKernel + ")";
            out.evidence.push_back(straggler);
            out.evidence.push_back(fmt(
                "rebalance bound: leveled kernel time %.3gs vs "
                "%.3gs actual (cycles gini %.2f -> %.2f)",
                ni.leveledKernelSeconds, ni.kernelSeconds,
                oi.cyclesGini, ni.cyclesGini));
        }
    }
    // Host-observatory context: which simulator host phase dominates
    // the new run's wall time, and how the replay throughput moved.
    // This names the *host* phase ("replay 68% of wall") rather than
    // the model phase -- phase.merge_seconds says the model charged
    // merge time; the host block says where the simulator itself
    // actually spent its wall clock.
    std::string host_detail;
    if (older.host && newer.host && newer.host->totalSeconds > 0.0) {
        const telemetry::HostProfile &oh = *older.host;
        const telemetry::HostProfile &nh = *newer.host;
        unsigned dominant = 0;
        for (unsigned p = 1; p < telemetry::kHostPhaseCount; ++p)
            if (nh.phaseSeconds[p] > nh.phaseSeconds[dominant])
                dominant = p;
        // Display label: the phase name with dashes ("host-merge").
        std::string label = telemetry::hostPhaseName(
            static_cast<telemetry::HostPhase>(dominant));
        std::replace(label.begin(), label.end(), '_', '-');
        host_detail =
            fmt("%s %.0f%% of wall", label.c_str(),
                nh.phaseSeconds[dominant] / nh.totalSeconds * 100.0);
        if (oh.replaySlotsPerSec > 0.0 && nh.replaySlotsPerSec > 0.0) {
            host_detail += fmt(", throughput %.2fx",
                               nh.replaySlotsPerSec /
                                   oh.replaySlotsPerSec);
        }
        if (nh.totalSeconds > oh.totalSeconds) {
            out.evidence.push_back(fmt(
                "host.total_seconds %s (%.3gs -> %.3gs), dominant "
                "host phase %s (%.3gs -> %.3gs)",
                pctChange(oh.totalSeconds, nh.totalSeconds).c_str(),
                oh.totalSeconds, nh.totalSeconds, label.c_str(),
                oh.phaseSeconds[dominant], nh.phaseSeconds[dominant]));
        }
        if (oh.slowdownFactor > 0.0 && nh.slowdownFactor > 0.0 &&
            nh.slowdownFactor != oh.slowdownFactor) {
            out.evidence.push_back(
                fmt("host.slowdown_factor %s (%.3g -> %.3g)",
                    pctChange(oh.slowdownFactor, nh.slowdownFactor)
                        .c_str(),
                    oh.slowdownFactor, nh.slowdownFactor));
        }
    }
    std::string stall_detail;
    if (older.hasProfile && newer.hasProfile) {
        for (const auto &[reason, new_frac] :
             newer.stallFractions) {
            const auto it = older.stallFractions.find(reason);
            const double old_frac =
                it == older.stallFractions.end() ? 0.0 : it->second;
            const double old_cycles =
                old_frac * static_cast<double>(older.totalCycles);
            const double new_cycles =
                new_frac * static_cast<double>(newer.totalCycles);
            if (new_cycles <= old_cycles)
                continue;
            std::string metric_reason = reason;
            std::replace(metric_reason.begin(),
                         metric_reason.end(), '-', '_');
            out.evidence.push_back(
                fmt("dpu.stall.%s_cycles %s (%.3g -> %.3g)",
                    metric_reason.c_str(),
                    pctChange(old_cycles, new_cycles).c_str(),
                    old_cycles, new_cycles));
            if ((out.kind == Bottleneck::MemoryBound &&
                 reason == "memory") ||
                (out.kind == Bottleneck::PipelineBound &&
                 reason != "memory")) {
                if (stall_detail.empty()) {
                    stall_detail =
                        reason + " stalls " +
                        pctChange(old_cycles, new_cycles);
                }
            }
        }
    }

    // ---- headline ----
    std::string driver = "no phase grew";
    for (const auto &p : phases) {
        if (p.delta > 0.0) {
            driver = fmt("%s (%s)", p.metric,
                         pctChange(p.oldv, p.newv).c_str());
            break;
        }
    }
    std::string detail;
    switch (out.kind) {
      case Bottleneck::TransferBound:
        detail = transfer_detail;
        break;
      case Bottleneck::ImbalanceBound:
        detail = imbalance_detail;
        break;
      case Bottleneck::MemoryBound:
      case Bottleneck::PipelineBound:
        detail = stall_detail;
        break;
      case Bottleneck::ComputeBound:
        if (older.issuedCycles > 0) {
            detail = "issued cycles " +
                     pctChange(
                         static_cast<double>(older.issuedCycles),
                         static_cast<double>(newer.issuedCycles));
        }
        break;
      case Bottleneck::HostBound:
        detail = host_detail;
        break;
      default:
        break;
    }
    out.headline =
        fmt("%s total, driven by %s, %s",
            pctChange(old_total, new_total).c_str(), driver.c_str(),
            bottleneckName(out.kind));
    if (!detail.empty())
        out.headline += " (" + detail + ")";
    return out;
}

} // namespace alphapim::perf
