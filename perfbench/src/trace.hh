/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark wraps each call into a repo module (serve, quant,
 * tensor, io, nn, adversarial) in a span: name, start, end, the
 * enclosing span on the same thread, and the request id it served.
 * Spans stay in memory until the run ends; then they are written as
 * Chrome trace-event JSON (chrome://tracing and Perfetto open it) and
 * reduced to per-layer self times.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** steady_clock in nanoseconds (the Server's SteadyClock base). */
uint64_t nowNs();

struct Span
{
    std::string name; ///< "<layer>.<call>", e.g. "serve.server.submit"
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1; ///< index of the enclosing span, -1 = root
    uint64_t rid = 0;    ///< request (or step) id, 0 = none
    int tid = 0;         ///< recording thread (or synthetic track)
};

/** Thread-safe span store. Nesting is tracked per thread. */
class Tracer
{
  public:
    /** Open a span on the calling thread; returns its index. */
    int64_t begin(const char *name, uint64_t rid);
    /** Close span @p idx (must be the calling thread's innermost). */
    void end(int64_t idx);
    /** Record a finished root span on track @p tid (for intervals the
     * benchmark learns after the fact, such as a reply's latency). */
    void add(const char *name, uint64_t start_ns, uint64_t end_ns,
             uint64_t rid, int tid);

    std::vector<Span> spans() const;

    /** Write Chrome trace-event JSON; false on I/O failure. */
    bool writeChrome(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; a null tracer records nothing (the untraced run). */
class SpanScope
{
  public:
    SpanScope(Tracer *t, const char *name, uint64_t rid = 0)
        : t_(t), idx_(t ? t->begin(name, rid) : -1)
    {
    }
    ~SpanScope()
    {
        if (t_)
            t_->end(idx_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *t_;
    int64_t idx_;
};

/**
 * Self time of each span in ns: its duration minus the union of its
 * children's intervals, each clipped to the span. Parallel to @p spans.
 */
std::vector<double> selfTimesNs(const std::vector<Span> &spans);

/**
 * Sum of all self times over the sum of root durations. Exactly 1
 * when children nest inside their parents; overlapping or escaping
 * children pull it away from 1.
 */
double selfCoverage(const std::vector<Span> &spans);

/** Self time per layer (the span name up to its first '.'), in ms. */
std::map<std::string, double> selfMsByLayer(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
