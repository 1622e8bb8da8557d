#include "analysis/capture.hh"

#include <utility>

#include "common/logging.hh"

namespace alphapim::analysis
{

void
TraceCapture::onLaunchBegin(const upmem::LaunchInfo &, unsigned num_dpus)
{
    std::lock_guard<std::mutex> lock(mutex_);
    launches_.emplace_back();
    launches_.back().dpuTraces.resize(num_dpus);
}

void
TraceCapture::onDpuTraces(unsigned dpu,
                          const std::vector<upmem::TaskletTrace> &traces,
                          const upmem::DpuConfig &)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ALPHA_ASSERT(!launches_.empty() &&
                     dpu < launches_.back().dpuTraces.size(),
                 "captured DPU outside an open launch group");
    launches_.back().dpuTraces[dpu] = traces;
}

std::vector<CapturedLaunch>
TraceCapture::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(launches_, {});
}

} // namespace alphapim::analysis
