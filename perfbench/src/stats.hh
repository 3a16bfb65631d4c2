/**
 * @file
 * Pure arithmetic of the benchmark: quantiles, the open-loop arrival
 * schedule, the SLO ladder rule, the draw-uniformity test and seed
 * derivation. Kept free of the serving stack so the unit tests pin it
 * without building a model.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Independent 64-bit seed for one input stream of a workload seed
 * (splitmix64 over the seed and an FNV-1a hash of @p stream). */
uint64_t deriveSeed(uint64_t seed, const std::string &stream);

/** FNV-1a over raw bytes, continuing from @p h. */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 1469598103934665603ULL);

/**
 * q-quantile (q in [0, 1]) with linear interpolation between order
 * statistics — numpy's default ("linear") rule. @p values need not be
 * sorted; 0 when empty.
 */
double quantile(std::vector<double> values, double q);

/** quantile(values, 0.5). */
double median(std::vector<double> values);

/**
 * Median over @p windows equal slices of [0, @p span) of the
 * q-quantile of the values @p v whose time @p t falls in each slice;
 * empty slices are skipped, 0 when all are. One noisy slice of a run
 * (a burst of host interference) then moves the result by at most one
 * rank.
 */
double windowedQuantile(const std::vector<double> &t,
                        const std::vector<double> &v, double span,
                        int windows, double q);

/** Median over @p windows equal slices of [0, @p span) of the event
 * rate in each slice: the weights @p w completed after its first event
 * over the time from its first to its last event (slices with fewer
 * than two distinct times are skipped). */
double windowedRate(const std::vector<double> &t,
                    const std::vector<double> &w, double span, int windows);

/**
 * Poisson arrival times in seconds from 0: exponential inter-arrival
 * gaps at @p rate_per_s drawn from @p seed by inverse CDF, until
 * @p duration_s. The same arguments give the same schedule.
 */
std::vector<double> poissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s);

/** One rung of the open-loop rate ladder. */
struct Rung
{
    double rowsPerS = 0.0; ///< offered rate
    double p99Ms = 0.0;    ///< p99 latency from due time
    double drainMs = 0.0;  ///< last due time -> last reply
    uint64_t failed = 0;   ///< failed requests (count as misses)
};

/**
 * The highest offered rate whose rung, and every lower rung, meets
 * the limit: p99 <= @p p99_limit_ms, no failed request, and a drain
 * no longer than the limit (a backlog that grew during the rung takes
 * longer than one latency limit to clear). 0 when the lowest rung
 * already misses. Rungs may come in any order.
 */
double sloRate(std::vector<Rung> rungs, double p99_limit_ms);

/**
 * Pearson chi-square goodness-of-fit p-value of @p counts against a
 * uniform distribution over its cells (k - 1 degrees of freedom).
 * 1 when every count is equal; needs at least two cells and one
 * observation.
 */
double chiSquareUniformP(const std::vector<uint64_t> &counts);

/** Regularized upper incomplete gamma Q(a, x) (chi-square tail). */
double gammaQ(double a, double x);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
