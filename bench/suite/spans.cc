#include <cstdio>
#include <fstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "suite.hh"

namespace alphapim::suite
{

double
percentileOf(std::vector<double> values, double p)
{
    return values.empty() ? 0.0 : percentile(std::move(values), p);
}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanLog::open(const char *name, std::uint64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
SpanLog::close(int id)
{
    ALPHA_ASSERT(!stack_.empty() && stack_.back() == id,
                 "bench spans must close innermost first");
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
}

std::vector<double>
SpanLog::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    // Children run inside their parent one after another on one
    // thread, so the part of the parent they cover is their sum.
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot write bench trace '%s'", path.c_str());
        return false;
    }
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu}}",
                      i ? "," : "", s.name.c_str(), s.start * 1e6,
                      (s.end - s.start) * 1e6, i, s.parent,
                      static_cast<unsigned long long>(s.op));
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace alphapim::suite
