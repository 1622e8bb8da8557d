#include "diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>

#include "common/random.hh"
#include "common/stats.hh"

namespace alphapim::perf
{

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Equal:
        return "equal";
      case Verdict::Drifted:
        return "drifted";
      case Verdict::Improved:
        return "improved";
      case Verdict::Regressed:
        return "regressed";
      case Verdict::OldOnly:
        return "old-only";
      case Verdict::NewOnly:
        return "new-only";
    }
    return "unknown";
}

void
bootstrapMeanDiffCI(const std::vector<double> &olds,
                    const std::vector<double> &news,
                    double confidence, std::size_t resamples,
                    std::uint64_t seed, double &low, double &high)
{
    low = high = 0.0;
    if (olds.empty() || news.empty() || resamples == 0)
        return;
    Rng rng(seed);
    auto resampled_mean = [&rng](const std::vector<double> &xs) {
        double sum = 0.0;
        for (std::size_t i = 0; i < xs.size(); ++i)
            sum += xs[rng.nextBounded(xs.size())];
        return sum / static_cast<double>(xs.size());
    };
    std::vector<double> diffs;
    diffs.reserve(resamples);
    for (std::size_t i = 0; i < resamples; ++i)
        diffs.push_back(resampled_mean(news) - resampled_mean(olds));
    const double tail = (1.0 - confidence) / 2.0 * 100.0;
    low = percentile(diffs, tail);
    high = percentile(diffs, 100.0 - tail);
}

namespace
{

double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/** Compare one deterministic (exactly reproducible) metric.
 * Better::Higher inverts the regression direction for throughput
 * metrics (fewer queries per second is the regression). */
MetricDelta
deterministicDelta(const std::string &metric, double oldv,
                   double newv, const DiffOptions &opt,
                   telemetry::Better better = telemetry::Better::Lower)
{
    MetricDelta d;
    d.metric = metric;
    d.oldValue = oldv;
    d.newValue = newv;
    d.relChange = oldv == 0.0 ? (newv == 0.0 ? 0.0 : 1.0)
                              : (newv - oldv) / oldv;
    const double scale =
        std::max({std::fabs(oldv), std::fabs(newv), 1.0});
    const double worse = better == telemetry::Better::Higher
        ? -d.relChange
        : d.relChange;
    if (std::fabs(newv - oldv) <= opt.epsilon * scale)
        d.verdict = Verdict::Equal;
    else if (worse > opt.threshold)
        d.verdict = Verdict::Regressed;
    else if (worse < -opt.threshold)
        d.verdict = Verdict::Improved;
    else
        d.verdict = Verdict::Drifted;
    return d;
}

/** Metric name of a list field: "<block>.<key>", or
 * "<object>.<key>" for a field in a nested object
 * ("roofline.op_intensity"). */
template <class T>
std::string
metricName(const char *block, const telemetry::JsonField<T> &f)
{
    return std::string(f.object.empty() ? block : f.object) + "." +
           f.key;
}

void
compareDeterministic(const RunRecord &o, const RunRecord &n,
                     const DiffOptions &opt, PairDiff &pair)
{
    auto add = [&](const std::string &metric, double oldv,
                   double newv) {
        pair.metrics.push_back(
            deterministicDelta(metric, oldv, newv, opt));
    };
    add("iterations", static_cast<double>(o.iterations),
        static_cast<double>(n.iterations));
    add("times.load", o.times.load, n.times.load);
    add("times.kernel", o.times.kernel, n.times.kernel);
    add("times.retrieve", o.times.retrieve, n.times.retrieve);
    add("times.merge", o.times.merge, n.times.merge);
    add("times.total", o.times.total(), n.times.total());
    if (o.hasProfile && n.hasProfile) {
        add("profile.total_cycles",
            static_cast<double>(o.totalCycles),
            static_cast<double>(n.totalCycles));
        add("profile.issued_cycles",
            static_cast<double>(o.issuedCycles),
            static_cast<double>(n.issuedCycles));
        add("profile.max_cycles", static_cast<double>(o.maxCycles),
            static_cast<double>(n.maxCycles));
    }
    forEachBlock([&](const char *name, auto member, auto fields) {
        const auto &ob = o.*member;
        const auto &nb = n.*member;
        if (!ob || !nb)
            return;
        for (const auto &f : fields) {
            if (f.compare != telemetry::Compare::Exact)
                continue;
            pair.metrics.push_back(deterministicDelta(
                metricName(name, f), telemetry::numberValue(f.at(*ob)),
                telemetry::numberValue(f.at(*nb)), opt, f.better));
        }
    });
}

/**
 * Compare one noisy (wall-clock-derived) metric via a seeded
 * bootstrap CI on the mean difference. Better::Higher inverts the
 * regression direction for throughput metrics (fewer replayed slots
 * per second is the regression). Degenerate samples (one per side)
 * report the values with no statistical claim.
 */
void
addNoisyMetric(const std::string &metric,
               const std::vector<double> &old_xs,
               const std::vector<double> &new_xs,
               telemetry::Better better, const DiffOptions &opt,
               PairDiff &pair)
{
    if (old_xs.empty() || new_xs.empty())
        return;
    MetricDelta d;
    d.metric = metric;
    d.noisy = true;
    d.oldValue = mean(old_xs);
    d.newValue = mean(new_xs);
    d.relChange = d.oldValue == 0.0
        ? 0.0
        : (d.newValue - d.oldValue) / d.oldValue;
    bootstrapMeanDiffCI(old_xs, new_xs, opt.confidence,
                        opt.resamples, opt.bootstrapSeed, d.ciLow,
                        d.ciHigh);
    if (old_xs.size() < 2 || new_xs.size() < 2) {
        d.verdict = Verdict::Equal;
        pair.metrics.push_back(d);
        return;
    }
    const bool higherIsBetter = better == telemetry::Better::Higher;
    const double worse =
        higherIsBetter ? -d.relChange : d.relChange;
    const bool ci_above = d.ciLow > 0.0;
    const bool ci_below = d.ciHigh < 0.0;
    const bool ci_worse = higherIsBetter ? ci_below : ci_above;
    const bool ci_better = higherIsBetter ? ci_above : ci_below;
    if (ci_worse && worse > opt.threshold)
        d.verdict = Verdict::Regressed;
    else if (ci_better && worse < -opt.threshold)
        d.verdict = Verdict::Improved;
    else if (ci_above || ci_below)
        d.verdict = Verdict::Drifted;
    else
        d.verdict = Verdict::Equal;
    pair.metrics.push_back(d);
}

/** Compare the noisy metrics -- the wall-clock duration, then every
 * noisy list field (the host block's seconds, throughputs and
 * slowdown) -- pooled over the records sharing the run key. */
void
compareNoisy(const std::vector<const RunRecord *> &olds,
             const std::vector<const RunRecord *> &news,
             const DiffOptions &opt, PairDiff &pair)
{
    // `sample` gives one record's value, or nullopt when it has none.
    auto add = [&](const std::string &metric, telemetry::Better better,
                   auto sample) {
        auto samples = [&](const std::vector<const RunRecord *> &rs) {
            std::vector<double> xs;
            for (const RunRecord *r : rs)
                if (const std::optional<double> x = sample(*r))
                    xs.push_back(*x);
            return xs;
        };
        addNoisyMetric(metric, samples(olds), samples(news), better, opt,
                       pair);
    };
    add("wall_seconds", telemetry::Better::Lower,
        [](const RunRecord &r) -> std::optional<double> {
            if (r.wallSeconds < 0.0)
                return std::nullopt;
            return r.wallSeconds;
        });
    forEachBlock([&](const char *name, auto member, auto fields) {
        for (const auto &f : fields) {
            if (f.compare != telemetry::Compare::Noisy)
                continue;
            add(metricName(name, f), f.better,
                [&](const RunRecord &r) -> std::optional<double> {
                    if (const auto &block = r.*member)
                        return telemetry::numberValue(f.at(*block));
                    return std::nullopt;
                });
        }
    });
}

/** Fold metric verdicts into the pair verdict. The gates are the
 * total model time, the straggler factor (a launch that got more
 * skewed is a regression even before it dominates the total), and
 * the serving tail latency / throughput pair (p95 up or queries/sec
 * down fails the serving baseline); other deterministic drift
 * demotes to Drifted. Wall-clock only gates when opt.wallClockGate;
 * host.* metrics only when opt.hostGate. */
Verdict
foldVerdict(const PairDiff &pair, const DiffOptions &opt)
{
    Verdict gate = Verdict::Equal;
    bool any_change = false;
    for (const MetricDelta &m : pair.metrics) {
        if (m.verdict == Verdict::Equal)
            continue;
        const bool is_host = m.metric.rfind("host.", 0) == 0;
        const bool noisy_gated =
            is_host ? opt.hostGate : opt.wallClockGate;
        if (m.noisy && !noisy_gated) {
            // advisory noisy metric: report, never gate
            continue;
        }
        any_change = true;
        if (m.metric == "imbalance.straggler_factor" &&
            m.verdict == Verdict::Regressed)
            return Verdict::Regressed;
        const bool serve_gate = m.metric == "serve.latency_p95" ||
                                m.metric == "serve.queries_per_sec";
        if (serve_gate && m.verdict == Verdict::Regressed)
            return Verdict::Regressed;
        if (m.metric == "times.total" || (m.noisy && noisy_gated)) {
            if (m.verdict == Verdict::Regressed)
                return Verdict::Regressed;
            if (m.verdict == Verdict::Improved)
                gate = Verdict::Improved;
        }
    }
    if (gate == Verdict::Improved)
        return Verdict::Improved;
    return any_change ? Verdict::Drifted : Verdict::Equal;
}

void
tally(DiffReport &report)
{
    for (const PairDiff &pair : report.pairs) {
        switch (pair.verdict) {
          case Verdict::Regressed:
            ++report.regressed;
            break;
          case Verdict::Improved:
            ++report.improved;
            break;
          case Verdict::Drifted:
            ++report.drifted;
            break;
          case Verdict::Equal:
            ++report.equal;
            break;
          case Verdict::OldOnly:
            ++report.oldOnly;
            break;
          case Verdict::NewOnly:
            ++report.newOnly;
            break;
        }
    }
}

std::string
join(const std::vector<std::string> &xs)
{
    std::string out;
    for (const std::string &x : xs) {
        if (!out.empty())
            out += ", ";
        out += x.empty() ? "<none>" : x;
    }
    return out;
}

void
setWarnings(const RecordSet &olds, const RecordSet &news,
            DiffReport &report)
{
    auto warn_set = [&](const RecordSet &set, const char *side) {
        if (set.mixedSchemas()) {
            report.warnings.push_back(
                std::string(side) + " file " + set.path +
                " mixes record schemas (" + join(set.schemas) +
                ") -- likely appended across incompatible versions");
        }
        if (set.mixedShas()) {
            report.warnings.push_back(
                std::string(side) + " file " + set.path +
                " mixes git revisions (" + join(set.gitShas) +
                ") -- likely appended across builds");
        }
    };
    warn_set(olds, "old");
    warn_set(news, "new");
    if (olds.schemas.size() == 1 && news.schemas.size() == 1 &&
        olds.schemas[0] != news.schemas[0]) {
        report.warnings.push_back(
            "schema mismatch: old=" +
            (olds.schemas[0].empty() ? "<none>" : olds.schemas[0]) +
            " new=" +
            (news.schemas[0].empty() ? "<none>" : news.schemas[0]));
    }
    auto fp_mismatch = [](const RecordSet &a, const RecordSet &b) {
        for (const RunRecord &ra : a.records) {
            if (ra.manifest.datasetFingerprint == 0)
                continue;
            for (const RunRecord &rb : b.records) {
                if (rb.manifest.datasetFingerprint != 0 &&
                    ra.key == rb.key &&
                    ra.manifest.datasetFingerprint !=
                        rb.manifest.datasetFingerprint)
                    return ra.key.str();
            }
        }
        return std::string();
    };
    if (const std::string key = fp_mismatch(olds, news);
        !key.empty()) {
        report.warnings.push_back(
            "dataset fingerprint changed for " + key +
            " -- the inputs differ, deltas are not like-for-like");
    }
}

} // namespace

DiffReport
diffRecordSets(const RecordSet &olds, const RecordSet &news,
               const DiffOptions &opt)
{
    DiffReport report;
    setWarnings(olds, news, report);

    std::map<RunKey, std::vector<const RunRecord *>> old_runs;
    std::map<RunKey, std::vector<const RunRecord *>> new_runs;
    for (const RunRecord &r : olds.records)
        old_runs[r.key].push_back(&r);
    for (const RunRecord &r : news.records)
        new_runs[r.key].push_back(&r);

    for (const auto &[key, old_list] : old_runs) {
        PairDiff pair;
        pair.key = key;
        const auto it = new_runs.find(key);
        if (it == new_runs.end()) {
            pair.verdict = Verdict::OldOnly;
            report.pairs.push_back(std::move(pair));
            continue;
        }
        const RunRecord &o = *old_list.front();
        const RunRecord &n = *it->second.front();
        compareDeterministic(o, n, opt, pair);
        compareNoisy(old_list, it->second, opt, pair);
        pair.verdict = foldVerdict(pair, opt);
        if (pair.verdict == Verdict::Regressed)
            pair.attribution = attributeRegression(o, n);
        report.pairs.push_back(std::move(pair));
    }
    for (const auto &[key, new_list] : new_runs) {
        (void)new_list;
        if (old_runs.find(key) == old_runs.end()) {
            PairDiff pair;
            pair.key = key;
            pair.verdict = Verdict::NewOnly;
            report.pairs.push_back(std::move(pair));
        }
    }
    tally(report);
    return report;
}

// ---------------------------------------------------------------
// Metrics-file mode
// ---------------------------------------------------------------

namespace
{

/** Comparable fields of one metrics-JSONL record, keyed by
 * "kind/name". */
using MetricFields = std::vector<std::pair<std::string, double>>;

bool
loadMetricsFile(const std::string &path,
                std::map<std::string, MetricFields> &out,
                std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        telemetry::JsonValue doc;
        std::string parse_error;
        if (!telemetry::JsonValue::parse(line, doc, &parse_error)) {
            if (error)
                *error = path + ":" + std::to_string(lineno) + ": " +
                         parse_error;
            return false;
        }
        const auto *kind = doc.find("kind");
        const auto *name = doc.find("name");
        if (!kind || !kind->isString() || !name ||
            !name->isString())
            continue;
        MetricFields fields;
        if (kind->asString() == "distribution") {
            for (const char *f :
                 {"count", "mean", "p50", "p95", "p99", "p999"}) {
                if (const auto *v = doc.find(f);
                    v && v->isNumber())
                    fields.emplace_back(f, v->asNumber());
            }
        } else if (const auto *v = doc.find("value");
                   v && v->isNumber()) {
            fields.emplace_back("value", v->asNumber());
        }
        out[kind->asString() + "/" + name->asString()] =
            std::move(fields);
    }
    return true;
}

} // namespace

bool
looksLikeMetricsFile(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        telemetry::JsonValue doc;
        if (!telemetry::JsonValue::parse(line, doc, nullptr))
            return false;
        const auto *kind = doc.find("kind");
        return kind && kind->isString();
    }
    return false;
}

bool
diffMetricsFiles(const std::string &oldPath,
                 const std::string &newPath, const DiffOptions &opt,
                 DiffReport &out, std::string *error)
{
    std::map<std::string, MetricFields> old_metrics;
    std::map<std::string, MetricFields> new_metrics;
    if (!loadMetricsFile(oldPath, old_metrics, error) ||
        !loadMetricsFile(newPath, new_metrics, error))
        return false;
    out = DiffReport();
    for (const auto &[label, old_fields] : old_metrics) {
        PairDiff pair;
        pair.label = label;
        const auto it = new_metrics.find(label);
        if (it == new_metrics.end()) {
            pair.verdict = Verdict::OldOnly;
            out.pairs.push_back(std::move(pair));
            continue;
        }
        for (const auto &[field, oldv] : old_fields) {
            const auto fit = std::find_if(
                it->second.begin(), it->second.end(),
                [&](const auto &p) { return p.first == field; });
            if (fit == it->second.end())
                continue;
            pair.metrics.push_back(deterministicDelta(
                field, oldv, fit->second, opt));
        }
        pair.verdict = Verdict::Equal;
        for (const MetricDelta &m : pair.metrics) {
            if (m.verdict == Verdict::Regressed) {
                pair.verdict = Verdict::Regressed;
                break;
            }
            if (m.verdict != Verdict::Equal)
                pair.verdict = Verdict::Drifted;
        }
        out.pairs.push_back(std::move(pair));
    }
    for (const auto &[label, fields] : new_metrics) {
        (void)fields;
        if (old_metrics.find(label) == old_metrics.end()) {
            PairDiff pair;
            pair.label = label;
            pair.verdict = Verdict::NewOnly;
            out.pairs.push_back(std::move(pair));
        }
    }
    tally(out);
    return true;
}

// ---------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------

namespace
{

std::string
pairLabel(const PairDiff &pair)
{
    return pair.label.empty() ? pair.key.str() : pair.label;
}

std::string
formatDelta(const MetricDelta &m, const DiffOptions &opt)
{
    char buf[192];
    if (m.noisy) {
        const bool gated = m.metric.rfind("host.", 0) == 0
                               ? opt.hostGate
                               : opt.wallClockGate;
        std::snprintf(buf, sizeof(buf),
                      "    %-22s %.4g -> %.4g (%+.1f%%, CI of "
                      "mean diff [%+.3g, %+.3g]) %s%s",
                      m.metric.c_str(), m.oldValue, m.newValue,
                      m.relChange * 100.0, m.ciLow, m.ciHigh,
                      verdictName(m.verdict),
                      gated ? "" : " [advisory]");
    } else {
        std::snprintf(buf, sizeof(buf),
                      "    %-22s %.6g -> %.6g (%+.2f%%) %s",
                      m.metric.c_str(), m.oldValue, m.newValue,
                      m.relChange * 100.0, verdictName(m.verdict));
    }
    return buf;
}

} // namespace

std::string
renderReport(const DiffReport &report, const DiffOptions &opt)
{
    std::string out;
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "bench-diff: %zu compared -- %zu regressed, %zu improved, "
        "%zu drifted, %zu equal (%zu old-only, %zu new-only; "
        "threshold %.1f%%)\n",
        report.pairs.size() - report.oldOnly - report.newOnly,
        report.regressed, report.improved, report.drifted,
        report.equal, report.oldOnly, report.newOnly,
        opt.threshold * 100.0);
    out += buf;
    for (const std::string &w : report.warnings)
        out += "warning: " + w + "\n";
    for (const PairDiff &pair : report.pairs) {
        if (pair.verdict == Verdict::Equal) {
            // Advisory noisy metrics never fold into the pair
            // verdict, but "advisory" means reported, not silent:
            // surface their movement under an [ok] header.
            std::string advisory;
            for (const MetricDelta &m : pair.metrics) {
                if (m.noisy && m.verdict != Verdict::Equal)
                    advisory += formatDelta(m, opt) + "\n";
            }
            if (!advisory.empty())
                out += "  [ok] " + pairLabel(pair) +
                       ": model metrics equal; host-side movement "
                       "(advisory):\n" +
                       advisory;
            continue;
        }
        out += "  [";
        out += verdictName(pair.verdict);
        out += "] " + pairLabel(pair);
        if (!pair.attribution.headline.empty())
            out += ": " + pair.attribution.headline;
        out += "\n";
        for (const std::string &e : pair.attribution.evidence)
            out += "      - " + e + "\n";
        for (const MetricDelta &m : pair.metrics) {
            if (m.verdict != Verdict::Equal)
                out += formatDelta(m, opt) + "\n";
        }
    }
    out += report.hasRegressions() ? "verdict: REGRESSED\n"
                                   : "verdict: OK\n";
    return out;
}

std::string
reportJson(const DiffReport &report)
{
    telemetry::JsonWriter w;
    w.beginObject();
    w.key("regressed").value(
        static_cast<std::uint64_t>(report.regressed));
    w.key("improved").value(
        static_cast<std::uint64_t>(report.improved));
    w.key("drifted").value(
        static_cast<std::uint64_t>(report.drifted));
    w.key("equal").value(static_cast<std::uint64_t>(report.equal));
    w.key("old_only").value(
        static_cast<std::uint64_t>(report.oldOnly));
    w.key("new_only").value(
        static_cast<std::uint64_t>(report.newOnly));
    w.key("warnings").beginArray();
    for (const std::string &warning : report.warnings)
        w.value(warning);
    w.endArray();
    w.key("pairs").beginArray();
    for (const PairDiff &pair : report.pairs) {
        w.beginObject();
        w.key("label").value(pairLabel(pair));
        w.key("verdict").value(verdictName(pair.verdict));
        if (pair.verdict == Verdict::Regressed) {
            w.key("bottleneck")
                .value(bottleneckName(pair.attribution.kind));
            w.key("headline").value(pair.attribution.headline);
            w.key("evidence").beginArray();
            for (const std::string &e : pair.attribution.evidence)
                w.value(e);
            w.endArray();
        }
        w.key("metrics").beginArray();
        for (const MetricDelta &m : pair.metrics) {
            if (m.verdict == Verdict::Equal)
                continue;
            w.beginObject();
            w.key("metric").value(m.metric);
            w.key("old").value(m.oldValue);
            w.key("new").value(m.newValue);
            w.key("rel_change").value(m.relChange);
            w.key("verdict").value(verdictName(m.verdict));
            if (m.noisy) {
                w.key("ci_low").value(m.ciLow);
                w.key("ci_high").value(m.ciHigh);
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace alphapim::perf
