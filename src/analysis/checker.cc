#include "analysis/checker.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.hh"

#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "upmem/tasklet_ctx.hh"

namespace alphapim::analysis
{

namespace
{

using upmem::OpClass;
using upmem::RecordKind;
using upmem::TaskletTrace;
using upmem::TraceRecord;

/**
 * Insert a finding into the sorted-unique retained list, evicting
 * from the back once over the cap: the kept set is the first `cap`
 * distinct findings in report order no matter in which order the
 * launch workers delivered them, so --check-out reports are
 * byte-stable across runs.
 */
void
storeFinding(std::vector<Finding> &stored, Finding f, std::size_t cap)
{
    const auto it = std::lower_bound(stored.begin(), stored.end(), f,
                                     findingLess);
    if (it != stored.end() && findingEquals(*it, f))
        return;
    stored.insert(it, std::move(f));
    if (stored.size() > cap)
        stored.pop_back();
}

/** One deduplicated addressed access of one tasklet. */
struct Access
{
    MemSpace space;
    std::uint64_t addr;
    std::uint64_t end; ///< addr + length
    bool write;
    unsigned tasklet;
    std::uint32_t round;   ///< barriers passed before the access
    std::uint64_t lockset; ///< bitmask of mutexes held

    auto
    key() const
    {
        return std::tie(space, addr, end, write, tasklet, round,
                        lockset);
    }
};

/** Scratch state of one DPU's analysis pass. */
struct DpuAnalysis
{
    const CheckOptions &opts;
    const upmem::DpuConfig &cfg;
    unsigned dpu;
    std::vector<Finding> findings;
    std::array<std::uint64_t, numFindingKinds> counts{};

    std::vector<Access> accesses;
    std::vector<std::vector<std::uint32_t>> barrierSeqs;
    /** Lock graph edges held-mutex -> acquired-mutex, with the first
     * tasklet that created each edge (for attribution). */
    std::map<std::pair<std::uint32_t, std::uint32_t>, unsigned> edges;
    /** Mutex id -> lockset bit, assigned on first sight; ids beyond
     * 64 share the last bit (conservative, never a false positive
     * for the missed-lock direction we report). */
    std::map<std::uint32_t, unsigned> lockBits;

    DpuAnalysis(const CheckOptions &o, const upmem::DpuConfig &c,
                unsigned d)
        : opts(o), cfg(c), dpu(d)
    {
    }

    void
    emit(Finding f)
    {
        ++counts[static_cast<unsigned>(f.kind)];
        if (findings.size() < TraceChecker::maxStoredPerDpu)
            findings.push_back(std::move(f));
    }

    std::uint64_t
    lockBit(std::uint32_t id)
    {
        auto it = lockBits.find(id);
        if (it == lockBits.end()) {
            const unsigned bit =
                static_cast<unsigned>(std::min<std::size_t>(
                    lockBits.size(), 63));
            it = lockBits.emplace(id, bit).first;
        }
        return 1ull << it->second;
    }

    void checkDma(unsigned t, const TraceRecord &r);
    void walkTasklet(unsigned t, const TaskletTrace &trace);
    void checkBarriers(const std::vector<bool> &participants);
    void checkLockGraph();
    void checkRaces();
};

void
DpuAnalysis::checkDma(unsigned t, const TraceRecord &r)
{
    const std::uint32_t bytes = r.arg;
    const char *why = dmaViolation(r, cfg);
    if (why == nullptr)
        return;

    Finding f;
    f.kind = FindingKind::IllegalDma;
    f.dpu = dpu;
    f.tasklet = t;
    f.space = MemSpace::Mram;
    f.addr = r.addressed() ? r.addr : 0;
    f.bytes = bytes;
    std::ostringstream os;
    os << (r.cls == OpClass::DmaWrite ? "DMA write" : "DMA read")
       << " of " << bytes << " bytes: " << why;
    f.detail = os.str();
    emit(std::move(f));
}

void
DpuAnalysis::walkTasklet(unsigned t, const TaskletTrace &trace)
{
    std::vector<std::uint32_t> held;
    std::uint64_t lockset = 0;
    std::uint32_t round = 0;
    auto &barriers = barrierSeqs[t];

    const auto holds = [&](std::uint32_t id) {
        return std::find(held.begin(), held.end(), id) != held.end();
    };

    for (const TraceRecord &r : trace.records()) {
        switch (r.kind) {
          case RecordKind::Mutex: {
            const std::uint32_t id = r.arg;
            if (r.count == 1) { // lock
                if (opts.lock && holds(id)) {
                    Finding f;
                    f.kind = FindingKind::DoubleLock;
                    f.dpu = dpu;
                    f.tasklet = t;
                    f.id = id;
                    f.detail = "mutex " + std::to_string(id) +
                               " locked while already held";
                    emit(std::move(f));
                } else {
                    if (opts.lock) {
                        for (const std::uint32_t h : held)
                            edges.try_emplace({h, id}, t);
                    }
                    held.push_back(id);
                    lockset |= lockBit(id);
                }
            } else { // unlock
                const auto it =
                    std::find(held.begin(), held.end(), id);
                if (it == held.end()) {
                    if (opts.lock) {
                        Finding f;
                        f.kind = FindingKind::UnlockUnheld;
                        f.dpu = dpu;
                        f.tasklet = t;
                        f.id = id;
                        f.detail = "mutex " + std::to_string(id) +
                                   " unlocked while not held";
                        emit(std::move(f));
                    }
                } else {
                    held.erase(it);
                    lockset &= ~lockBit(id);
                    // Re-assert bits of mutexes still held in case
                    // two ids share the overflow bit.
                    for (const std::uint32_t h : held)
                        lockset |= lockBit(h);
                }
            }
            break;
          }
          case RecordKind::Barrier:
            barriers.push_back(r.arg);
            ++round;
            break;
          case RecordKind::Dma:
            if (opts.dma)
                checkDma(t, r);
            if (opts.race && r.addressed()) {
                accesses.push_back({MemSpace::Mram, r.addr,
                                    r.addr + r.arg,
                                    r.cls == OpClass::DmaWrite, t,
                                    round, lockset});
            }
            break;
          case RecordKind::Ops:
            if (opts.race && r.addressed()) {
                accesses.push_back({MemSpace::Wram, r.addr,
                                    r.addr + r.arg,
                                    r.cls == OpClass::StoreWram, t,
                                    round, lockset});
            }
            break;
        }
    }

    if (opts.lock) {
        for (const std::uint32_t id : held) {
            Finding f;
            f.kind = FindingKind::LockHeldAtExit;
            f.dpu = dpu;
            f.tasklet = t;
            f.id = id;
            f.detail = "mutex " + std::to_string(id) +
                       " still held at end of trace";
            emit(std::move(f));
        }
    }
}

void
DpuAnalysis::checkBarriers(const std::vector<bool> &participants)
{
    // Participants are tasklets with non-empty traces -- the same
    // exemption the replay scheduler's barrier quorum applies. All
    // participants must agree on the exact barrier sequence, or the
    // real hardware barrier would hang / release early.
    int ref = -1;
    for (std::size_t t = 0; t < participants.size(); ++t) {
        if (!participants[t])
            continue;
        if (ref < 0) {
            ref = static_cast<int>(t);
            continue;
        }
        if (barrierSeqs[t] ==
            barrierSeqs[static_cast<std::size_t>(ref)])
            continue;
        Finding f;
        f.kind = FindingKind::BarrierDivergence;
        f.dpu = dpu;
        f.tasklet = static_cast<unsigned>(t);
        f.otherTasklet = static_cast<unsigned>(ref);
        std::ostringstream os;
        os << "tasklet " << t << " passes "
           << barrierSeqs[t].size() << " barriers, tasklet " << ref
           << " passes "
           << barrierSeqs[static_cast<std::size_t>(ref)].size()
           << " (or the id sequences differ)";
        f.detail = os.str();
        emit(std::move(f));
    }
}

void
DpuAnalysis::checkLockGraph()
{
    // DFS cycle detection over the acquired-while-holding edges.
    std::map<std::uint32_t, std::vector<std::uint32_t>> adj;
    for (const auto &[edge, t] : edges)
        adj[edge.first].push_back(edge.second);

    std::map<std::uint32_t, int> color; // 0 new, 1 active, 2 done
    std::vector<std::uint32_t> path;

    const std::function<bool(std::uint32_t)> dfs =
        [&](std::uint32_t u) -> bool {
        color[u] = 1;
        path.push_back(u);
        for (const std::uint32_t v : adj[u]) {
            if (color[v] == 1) {
                // Cycle: path from v to u, closed by u -> v.
                const auto it =
                    std::find(path.begin(), path.end(), v);
                std::ostringstream os;
                os << "lock-order cycle:";
                for (auto p = it; p != path.end(); ++p)
                    os << ' ' << *p << " ->";
                os << ' ' << v;
                Finding f;
                f.kind = FindingKind::LockOrderCycle;
                f.dpu = dpu;
                f.tasklet = edges.at({u, v});
                f.id = v;
                f.detail = os.str();
                emit(std::move(f));
                path.pop_back();
                color[u] = 2;
                return true;
            }
            if (color[v] == 0 && dfs(v)) {
                path.pop_back();
                color[u] = 2;
                return true;
            }
        }
        path.pop_back();
        color[u] = 2;
        return false;
    };

    for (const auto &[node, _] : adj) {
        if (color[node] == 0 && dfs(node))
            return; // one cycle report per DPU is enough
    }
}

void
DpuAnalysis::checkRaces()
{
    // Dedup identical accesses (kernels touch the same accumulator
    // slot once per nonzero; one representative per equivalence
    // class suffices for race detection).
    std::sort(accesses.begin(), accesses.end(),
              [](const Access &a, const Access &b) {
                  return a.key() < b.key();
              });
    accesses.erase(std::unique(accesses.begin(), accesses.end(),
                               [](const Access &a, const Access &b) {
                                   return a.key() == b.key();
                               }),
                   accesses.end());

    // Sweep in address order with a window of still-overlapping
    // candidates. Two accesses conflict when they overlap, come from
    // different tasklets in the same barrier round (no happens-
    // before), at least one writes, and no common mutex is held.
    std::sort(accesses.begin(), accesses.end(),
              [](const Access &a, const Access &b) {
                  return std::tie(a.space, a.addr, a.end) <
                         std::tie(b.space, b.addr, b.end);
              });

    constexpr std::uint64_t raceCap = 64; // per DPU, incl. uncounted
    std::uint64_t races = 0;
    std::vector<const Access *> window;
    for (const Access &a : accesses) {
        window.erase(
            std::remove_if(window.begin(), window.end(),
                           [&](const Access *w) {
                               return w->space != a.space ||
                                      w->end <= a.addr;
                           }),
            window.end());
        for (const Access *w : window) {
            if (w->tasklet == a.tasklet)
                continue;
            if (!w->write && !a.write)
                continue;
            if (w->round != a.round)
                continue; // ordered by an intervening barrier
            if ((w->lockset & a.lockset) != 0)
                continue; // consistently locked
            Finding f;
            f.kind = FindingKind::DataRace;
            f.dpu = dpu;
            f.tasklet = a.tasklet;
            f.otherTasklet = w->tasklet;
            f.space = a.space;
            f.addr = std::max(a.addr, w->addr);
            f.bytes = static_cast<std::uint32_t>(
                std::min(a.end, w->end) - f.addr);
            std::ostringstream os;
            os << (a.write ? "write" : "read") << " by tasklet "
               << a.tasklet << " races with "
               << (w->write ? "write" : "read") << " by tasklet "
               << w->tasklet << " at " << memSpaceName(a.space)
               << "+0x" << std::hex << f.addr << std::dec << " ("
               << f.bytes << " bytes, round " << a.round << ")";
            f.detail = os.str();
            emit(std::move(f));
            if (++races >= raceCap)
                return;
        }
        window.push_back(&a);
    }
}

} // namespace

const char *
dmaViolation(const upmem::TraceRecord &r, const upmem::DpuConfig &cfg)
{
    const std::uint32_t bytes = r.arg;
    if (bytes == 0)
        return "zero-length transfer";
    if (bytes % upmem::dmaGranularity != 0)
        return "size not a multiple of the 8-byte DMA granularity";
    if (bytes > upmem::dmaMaxBytes)
        return "size exceeds the 2048-byte hardware transfer maximum";
    const auto staging = std::max<Bytes>(
        upmem::dmaGranularity,
        cfg.wramChunkBytes &
            ~static_cast<Bytes>(upmem::dmaGranularity - 1));
    if (bytes > staging)
        return "transfer does not fit the WRAM staging buffer";
    if (r.addressed() && r.addr % upmem::dmaGranularity != 0)
        return "MRAM address not 8-byte aligned";
    return nullptr;
}

bool
CheckOptions::parseList(std::string_view list, CheckOptions &out,
                        std::string *error)
{
    CheckOptions sel;
    if (list.empty() || list == "all") {
        out = sel;
        return true;
    }
    sel = CheckOptions{false, false, false, false};
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string_view tok = list.substr(
            pos, comma == std::string_view::npos ? std::string_view::npos
                                                 : comma - pos);
        if (tok == "race") {
            sel.race = true;
        } else if (tok == "lock") {
            sel.lock = true;
        } else if (tok == "barrier") {
            sel.barrier = true;
        } else if (tok == "dma") {
            sel.dma = true;
        } else if (tok == "all") {
            sel = CheckOptions{};
        } else {
            if (error != nullptr) {
                *error = "unknown check family '" + std::string(tok) +
                         "' (expected race, lock, barrier, dma, all)";
            }
            return false;
        }
        if (comma == std::string_view::npos)
            break;
        pos = comma + 1;
    }
    out = sel;
    return true;
}

void
TraceChecker::analyzeDpu(unsigned dpu,
                         const std::vector<upmem::TaskletTrace> &traces,
                         const upmem::DpuConfig &cfg)
{
    if (!opts_.any())
        return;

    DpuAnalysis a(opts_, cfg, dpu);
    a.barrierSeqs.resize(traces.size());
    unsigned nonEmpty = 0;
    for (unsigned t = 0; t < traces.size(); ++t) {
        if (traces[t].empty())
            continue;
        ++nonEmpty;
        a.walkTasklet(t, traces[t]);
    }
    if (opts_.barrier) {
        std::vector<bool> participants(traces.size());
        for (unsigned t = 0; t < traces.size(); ++t)
            participants[t] = !traces[t].empty();
        a.checkBarriers(participants);
    }
    if (opts_.lock)
        a.checkLockGraph();
    if (opts_.race)
        a.checkRaces();

    std::uint64_t newTotal = 0;
    for (const auto c : a.counts)
        newTotal += c;

    auto &m = telemetry::metrics();
    m.addCounter("analysis.dpus_checked");
    m.addCounter("analysis.traces_checked", nonEmpty);
    // An explicit zero distinguishes "checked and clean" from "never
    // checked" in the dump; per-kind counters stay sparse.
    m.addCounter("analysis.findings", newTotal);
    for (unsigned k = 0; k < numFindingKinds; ++k) {
        if (a.counts[k] > 0) {
            m.addCounter(std::string("analysis.findings.") +
                             findingKindName(static_cast<FindingKind>(k)),
                         a.counts[k]);
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++report_.dpusChecked;
    report_.tracesChecked += nonEmpty;
    for (unsigned k = 0; k < numFindingKinds; ++k)
        report_.counts[k] += a.counts[k];
    for (auto &f : a.findings)
        storeFinding(report_.findings, std::move(f), maxStoredFindings);
    report_.dropped = report_.total() - report_.findings.size();
}

void
TraceChecker::injectFinding(Finding f)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++report_.counts[static_cast<unsigned>(f.kind)];
    storeFinding(report_.findings, std::move(f), maxStoredFindings);
    report_.dropped = report_.total() - report_.findings.size();
}

AnalysisReport
TraceChecker::report() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return report_;
}

std::uint64_t
TraceChecker::findingCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return report_.total();
}

void
TraceChecker::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    report_ = AnalysisReport{};
}

std::string
TraceChecker::reportJson() const
{
    const AnalysisReport rep = report();

    telemetry::JsonWriter w;
    w.beginObject();
    w.key("schema").value("alpha-pim-analysis-v1");
    w.key("options").beginObject();
    w.key("race").value(opts_.race);
    w.key("lock").value(opts_.lock);
    w.key("barrier").value(opts_.barrier);
    w.key("dma").value(opts_.dma);
    w.endObject();
    w.key("dpus_checked").value(rep.dpusChecked);
    w.key("traces_checked").value(rep.tracesChecked);
    w.key("total_findings").value(rep.total());
    w.key("dropped").value(rep.dropped);
    w.key("counts").beginObject();
    for (unsigned k = 0; k < numFindingKinds; ++k) {
        w.key(findingKindName(static_cast<FindingKind>(k)))
            .value(rep.counts[k]);
    }
    w.endObject();
    w.key("findings").beginArray();
    for (const Finding &f : rep.findings) {
        w.beginObject();
        w.key("kind").value(findingKindName(f.kind));
        w.key("dpu").value(static_cast<std::uint64_t>(f.dpu));
        w.key("tasklet").value(static_cast<std::uint64_t>(f.tasklet));
        if (f.otherTasklet != noTasklet) {
            w.key("other_tasklet")
                .value(static_cast<std::uint64_t>(f.otherTasklet));
        }
        if (f.space != MemSpace::None) {
            w.key("space").value(memSpaceName(f.space));
            w.key("addr").value(f.addr);
            w.key("bytes").value(
                static_cast<std::uint64_t>(f.bytes));
        }
        w.key("id").value(static_cast<std::uint64_t>(f.id));
        w.key("detail").value(f.detail);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
TraceChecker::writeReport(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << reportJson() << '\n';
    return out.good();
}

bool
CheckFlags::parse(CliArgs &args, const std::function<void()> &usage)
{
    const std::string &arg = args.arg();
    if (arg == "--check") {
        if (args.hasInlineValue())
            families = args.inlineValue();
    } else if (arg == "--check-out") {
        out = args.value();
    } else if (arg == "--check-inject") {
        const std::string kind = args.value();
        inject.reset();
        for (unsigned k = 0; k < numFindingKinds; ++k) {
            if (kind == findingKindName(static_cast<FindingKind>(k)))
                inject = static_cast<FindingKind>(k);
        }
        if (!inject) {
            std::fprintf(stderr, "--check-inject: unknown kind '%s'\n",
                         kind.c_str());
            usage();
        }
    } else {
        return false;
    }
    on = true;
    return true;
}

bool
CheckFlags::makeChecker(std::string *error)
{
    if (!on)
        return true;
    CheckOptions sel;
    if (!CheckOptions::parseList(families, sel, error))
        return false;
    checker = std::make_shared<TraceChecker>(sel);
    return true;
}

int
CheckFlags::finish() const
{
    if (!checker)
        return 0;
    if (inject) {
        Finding f;
        f.kind = *inject;
        f.detail = "synthetic finding injected by --check-inject";
        checker->injectFinding(std::move(f));
    }
    return finalizeCheckReport(*checker, out);
}

int
finalizeCheckReport(const TraceChecker &checker,
                    const std::string &report_path)
{
    const AnalysisReport report = checker.report();
    std::printf("\npim-verify: %llu finding(s) across %llu DPU "
                "launches checked\n",
                static_cast<unsigned long long>(report.total()),
                static_cast<unsigned long long>(report.dpusChecked));
    for (const Finding &f : report.findings)
        std::printf("  %s\n", describeFinding(f).c_str());
    if (report.dropped > 0)
        std::printf("  ... and %llu more (not retained)\n",
                    static_cast<unsigned long long>(report.dropped));
    if (!report_path.empty()) {
        if (!checker.writeReport(report_path)) {
            std::fprintf(stderr, "cannot write check report '%s'\n",
                         report_path.c_str());
            return 2;
        }
        inform("wrote pim-verify report to %s", report_path.c_str());
    }
    return report.total() > 0 ? 3 : 0;
}

std::string
describeFinding(const Finding &f)
{
    std::ostringstream os;
    os << findingKindName(f.kind) << " dpu=" << f.dpu
       << " tasklet=" << f.tasklet;
    if (f.otherTasklet != noTasklet)
        os << "/" << f.otherTasklet;
    os << ": " << f.detail;
    return os.str();
}

} // namespace alphapim::analysis
