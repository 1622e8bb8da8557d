#include "critical_path.hh"

#include <algorithm>

namespace alphapim::analysis
{

const char *
pathPhaseName(PathPhase phase)
{
    static constexpr const char *names[numPathPhases] = {
        "load", "kernel", "retrieve", "merge"};
    return names[static_cast<std::size_t>(phase)];
}

CriticalPath
criticalPath(const std::vector<telemetry::LaunchWindow> &launches)
{
    CriticalPath path;
    Seconds end = 0.0;
    Seconds sums[numPathPhases] = {};
    std::size_t count = 0;
    for (const telemetry::LaunchWindow &l : launches) {
        const Seconds phases[numPathPhases] = {l.load, l.kernel_time,
                                               l.retrieve, l.merge};
        for (std::size_t p = 0; p < numPathPhases; ++p) {
            end += phases[p];
            sums[p] += phases[p];
            ++count;
            // The path starts at the first phase and ends at the first
            // one that reaches its final length; trailing phases that
            // add no time are not on it.
            if (count == 1 || end > path.length) {
                path.length = end;
                path.nodes = count;
                std::copy(sums, sums + numPathPhases,
                          path.phaseSeconds);
            }
        }
    }
    return path;
}

WhatIf
estimateOverlap(const std::vector<telemetry::LaunchWindow> &launches)
{
    WhatIf w;
    if (launches.empty())
        return w;

    Seconds sum_kernel = 0.0;
    Seconds sum_transfer = 0.0;
    Seconds sum_merge = 0.0;
    for (const telemetry::LaunchWindow &l : launches) {
        w.serialSeconds += l.total();
        w.rankOverlapSeconds +=
            std::max(l.kernel_time, l.load + l.retrieve) + l.merge;
        sum_kernel += l.kernel_time;
        sum_transfer += l.load + l.retrieve;
        sum_merge += l.merge;
    }

    // Double buffering: load k+1 hides under merge k; everything
    // else stays serial.
    w.doubleBufferSeconds = launches.front().load;
    for (std::size_t k = 0; k < launches.size(); ++k) {
        w.doubleBufferSeconds +=
            launches[k].kernel_time + launches[k].retrieve;
        if (k + 1 < launches.size())
            w.doubleBufferSeconds += std::max(
                launches[k].merge, launches[k + 1].load);
        else
            w.doubleBufferSeconds += launches[k].merge;
    }

    w.combinedSeconds =
        std::max({sum_kernel, sum_transfer, sum_merge});
    return w;
}

} // namespace alphapim::analysis
