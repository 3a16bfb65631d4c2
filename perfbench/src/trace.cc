/**
 * @file
 * Span recorder and self-time arithmetic (see trace.hh).
 */

#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>

namespace perfbench {

namespace {

int
threadId()
{
    static std::atomic<int> next{1};
    thread_local int id = next.fetch_add(1);
    return id;
}

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<int64_t> tlsStack;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int64_t
Tracer::begin(const char *name, uint64_t rid)
{
    Span s;
    s.name = name;
    s.parent = tlsStack.empty() ? -1 : tlsStack.back();
    s.rid = rid;
    s.tid = threadId();
    s.startNs = nowNs();
    int64_t idx;
    {
        std::lock_guard<std::mutex> g(mu_);
        idx = static_cast<int64_t>(spans_.size());
        spans_.push_back(std::move(s));
    }
    tlsStack.push_back(idx);
    return idx;
}

void
Tracer::end(int64_t idx)
{
    uint64_t t = nowNs();
    if (!tlsStack.empty() && tlsStack.back() == idx)
        tlsStack.pop_back();
    std::lock_guard<std::mutex> g(mu_);
    spans_[static_cast<size_t>(idx)].endNs = t;
}

void
Tracer::add(const char *name, uint64_t start_ns, uint64_t end_ns,
            uint64_t rid, int tid)
{
    Span s;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = std::max(start_ns, end_ns);
    s.rid = rid;
    s.tid = tid;
    std::lock_guard<std::mutex> g(mu_);
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> g(mu_);
    return spans_;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::vector<Span> all = spans();
    uint64_t t0 = UINT64_MAX;
    for (const Span &s : all)
        t0 = std::min(t0, s.startNs);
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        f << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(s.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << static_cast<double>(s.startNs - t0) / 1e3
          << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"rid\":" << s.rid << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

std::vector<double>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<size_t>(p) < spans.size())
            children[static_cast<size_t>(p)].push_back(i);
    }
    std::vector<double> self(spans.size(), 0.0);
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        iv.clear();
        for (size_t c : children[i]) {
            uint64_t lo = std::max(s.startNs, spans[c].startNs);
            uint64_t hi = std::min(s.endNs, spans[c].endNs);
            if (hi > lo)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (const auto &p : iv) {
            if (open && p.first <= cur_hi) {
                cur_hi = std::max(cur_hi, p.second);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = p.first;
            cur_hi = p.second;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = static_cast<double>(s.endNs - s.startNs) -
                  static_cast<double>(covered);
    }
    return self;
}

double
selfCoverage(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimesNs(spans);
    double sum_self = 0.0, sum_root = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        sum_self += self[i];
        if (spans[i].parent < 0)
            sum_root +=
                static_cast<double>(spans[i].endNs - spans[i].startNs);
    }
    return sum_root > 0.0 ? sum_self / sum_root : 1.0;
}

std::map<std::string, double>
selfMsByLayer(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimesNs(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const std::string &n = spans[i].name;
        out[n.substr(0, n.find('.'))] += self[i] / 1e6;
    }
    return out;
}

} // namespace perfbench
