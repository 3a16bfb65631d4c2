/**
 * @file
 * Benchmark arithmetic (see stats.hh).
 */

#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hh"

namespace perfbench {

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t
deriveSeed(uint64_t seed, const std::string &stream)
{
    uint64_t z = seed ^ fnv1a(stream.data(), stream.size());
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    q = std::min(1.0, std::max(0.0, q));
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

namespace {

/** Index of the slice holding time @p t, or -1 outside [0, span). */
int
sliceOf(double t, double span, int windows)
{
    if (!(t >= 0.0) || t >= span)
        return -1;
    return std::min(windows - 1, static_cast<int>(t / span * windows));
}

} // namespace

double
windowedQuantile(const std::vector<double> &t, const std::vector<double> &v,
                 double span, int windows, double q)
{
    std::vector<std::vector<double>> slices(static_cast<size_t>(windows));
    for (size_t i = 0; i < t.size() && i < v.size(); ++i) {
        int s = sliceOf(t[i], span, windows);
        if (s >= 0)
            slices[static_cast<size_t>(s)].push_back(v[i]);
    }
    std::vector<double> per;
    for (auto &sl : slices)
        if (!sl.empty())
            per.push_back(quantile(std::move(sl), q));
    return median(std::move(per));
}

double
windowedRate(const std::vector<double> &t, const std::vector<double> &w,
             double span, int windows)
{
    std::vector<std::vector<std::pair<double, double>>> slices(
        static_cast<size_t>(windows));
    for (size_t i = 0; i < t.size() && i < w.size(); ++i) {
        int s = sliceOf(t[i], span, windows);
        if (s >= 0)
            slices[static_cast<size_t>(s)].emplace_back(t[i], w[i]);
    }
    std::vector<double> per;
    for (auto &sl : slices) {
        std::sort(sl.begin(), sl.end());
        if (sl.size() < 2 || !(sl.back().first > sl.front().first))
            continue;
        double sum = 0.0;
        for (size_t i = 1; i < sl.size(); ++i)
            sum += sl[i].second;
        per.push_back(sum / (sl.back().first - sl.front().first));
    }
    return median(std::move(per));
}

std::vector<double>
poissonArrivals(uint64_t seed, double rate_per_s, double duration_s)
{
    if (!(rate_per_s > 0.0))
        throw std::invalid_argument("arrival rate must be positive");
    twoinone::Rng rng(seed);
    std::vector<double> t;
    double now = 0.0;
    for (;;) {
        double u = 1.0 - rng.uniform(); // (0, 1]
        now += -std::log(u) / rate_per_s;
        if (now >= duration_s)
            return t;
        t.push_back(now);
    }
}

double
sloRate(std::vector<Rung> rungs, double p99_limit_ms)
{
    std::sort(rungs.begin(), rungs.end(),
              [](const Rung &a, const Rung &b) {
                  return a.rowsPerS < b.rowsPerS;
              });
    double best = 0.0;
    for (const Rung &r : rungs) {
        bool ok = r.failed == 0 && r.p99Ms <= p99_limit_ms &&
                  r.drainMs <= p99_limit_ms;
        if (!ok)
            break;
        best = r.rowsPerS;
    }
    return best;
}

double
gammaQ(double a, double x)
{
    if (x <= 0.0)
        return 1.0;
    double gln = std::lgamma(a);
    if (x < a + 1.0) {
        // Series for P(a, x); Q = 1 - P.
        double ap = a, sum = 1.0 / a, del = sum;
        for (int n = 0; n < 500; ++n) {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if (std::fabs(del) < std::fabs(sum) * 1e-15)
                break;
        }
        return 1.0 - sum * std::exp(-x + a * std::log(x) - gln);
    }
    // Lentz continued fraction for Q(a, x).
    const double tiny = 1e-300;
    double b = x + 1.0 - a, c = 1.0 / tiny, d = 1.0 / b, h = d;
    for (int i = 1; i < 500; ++i) {
        double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = b + an / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < 1e-15)
            break;
    }
    return std::exp(-x + a * std::log(x) - gln) * h;
}

double
chiSquareUniformP(const std::vector<uint64_t> &counts)
{
    if (counts.size() < 2)
        throw std::invalid_argument("chi-square needs two cells");
    double n = 0.0;
    for (uint64_t c : counts)
        n += static_cast<double>(c);
    if (n <= 0.0)
        throw std::invalid_argument("chi-square needs observations");
    double expect = n / static_cast<double>(counts.size());
    double chi2 = 0.0;
    for (uint64_t c : counts) {
        double d = static_cast<double>(c) - expect;
        chi2 += d * d / expect;
    }
    return gammaQ(0.5 * static_cast<double>(counts.size() - 1),
                  0.5 * chi2);
}

} // namespace perfbench
