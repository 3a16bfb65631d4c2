/**
 * @file
 * Shared declarations of the benchmark program: options, the result
 * record, and the workload, loop and layer-probe entry points.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adversarial/trainer.hh"
#include "data/synthetic.hh"
#include "nn/sgd.hh"
#include "quant/rps_engine.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Model artifact the serving workloads load (written by the
     * untimed prepare step). */
    std::string artifact;
    /** Directory for the trace and the full result record. */
    std::string outDir = ".bench_out";
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one run reports. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** Extra numbers kept in the full result record only. */
    std::map<std::string, double> info;
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
    void
    e2e(const std::string &name, double v, const std::string &unit)
    {
        endToEnd[name] = {v, unit};
    }
    void
    layer(const std::string &name, double v, const std::string &unit)
    {
        perLayer[name] = {v, unit};
    }
};

/** Wall seconds since @p t0_ns. */
double secondsSince(uint64_t t0_ns);

/** Peak resident set of this process so far, MB. */
double peakRssMb();

/** Durations in ms of every span named @p name. */
std::vector<double> spanMs(const std::vector<Span> &spans,
                           const std::string &name);

/** FNV-1a digest of every parameter value of @p net. */
uint64_t paramDigest(twoinone::Network &net);

/** Per-candidate counts of the per-batch precisions in @p trace
 * (@p outside counts precisions not in @p candidates); returns the
 * chi-square p-value against a uniform draw over @p candidates. */
double drawTest(const std::vector<int> &trace,
                const std::vector<int> &candidates,
                std::vector<uint64_t> &hist, uint64_t &outside);

/** drawTest, failing @p r when the p-value is below 1e-4 or a
 * precision outside the set was drawn. */
void drawCheck(const std::vector<int> &trace,
               const std::vector<int> &candidates, RunResult &r);

// ---- workloads ------------------------------------------------------

/** Pool threads a workload runs with (set before the pool starts). */
int poolThreads(const std::string &workload);

/** Write the serving workloads' model artifact (untimed). */
void prepareArtifact(const Options &o);

void runMiniPoisson(const Options &o, RunResult &r);
void runR50Closed(const Options &o, RunResult &r);
void runRpsTrain(const Options &o, RunResult &r);

// ---- serving loops (serving.cc) -------------------------------------

/** Per-request record of one serving phase. */
struct PhaseResult
{
    std::vector<double> latMs;    ///< from due time (open) / submit
    /** Per latency sample: seconds from the phase start to its due
     * time (open loop) or completion (closed loop). */
    std::vector<double> atS;
    std::vector<double> rowsOf;   ///< rows of each latency sample
    std::vector<double> lateMs;   ///< generator lateness
    std::vector<double> replyMs;  ///< Reply::latencyUs / 1000
    std::vector<size_t> poolIdx;  ///< input of each served reply
    std::vector<twoinone::serve::Reply> replies;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t rows = 0;
    double wallS = 0.0;
    double drainMs = 0.0; ///< open loop: last due time -> all served
};

/** Seeded request inputs: @p n tensors of [rows, shape...] with rows
 * uniform in [rows_lo, rows_hi] and pixels uniform in [0, 1). */
std::vector<twoinone::Tensor> requestPool(uint64_t seed, size_t n,
                                          int rows_lo, int rows_hi,
                                          const std::vector<int> &shape);

/** Open loop: Poisson arrivals at @p rows_per_s (request rate =
 * rows_per_s / mean rows of the pool), each submitted at its due time
 * and timed from it, for @p seconds; flushes before returning. */
PhaseResult openLoop(twoinone::serve::Server &srv, int tenant,
                     const std::vector<twoinone::Tensor> &pool,
                     double rows_per_s, double seconds,
                     uint64_t arrival_seed, Tracer *tr);

/** Closed loop: @p clients threads, each submitting its next request
 * when the previous reply arrives, for @p seconds. */
PhaseResult closedLoop(twoinone::serve::Server &srv, int tenant,
                       const std::vector<twoinone::Tensor> &pool,
                       int clients, double seconds, Tracer *tr);

/** Check a seeded sample of @p sample served replies (all when fewer)
 * bit for bit against RpsEngine::forwardQuantizedAt(reply.precision,
 * x); returns the number of wrong answers. Call quiesced. */
uint64_t verifyReplies(twoinone::RpsEngine &engine,
                       const std::vector<twoinone::Tensor> &pool,
                       const PhaseResult &ph, size_t sample,
                       uint64_t seed);

/** Server-layer metrics of a traced phase: submit/reply quantiles,
 * batch geometry, served-precision histogram and draw test. */
void serverLayerMetrics(const PhaseResult &ph,
                        const std::vector<Span> &spans,
                        const twoinone::serve::ServeStats &before,
                        const twoinone::serve::ServeStats &after,
                        const std::vector<int> &precision_trace,
                        const std::vector<int> &candidates,
                        RunResult &r);

// ---- training loop (training.cc) ------------------------------------

/** Per-step record of the RPS PGD-7 training loop. */
struct TrainStats
{
    std::vector<double> stepMs;
    std::vector<double> endS; ///< step end, seconds from loop start
    std::vector<int> drawn; ///< precision of each step
    uint64_t steps = 0;
    uint64_t images = 0;
    uint64_t nonFinite = 0;
    uint64_t refreshedLayers = 0;
    double wallS = 0.0;
};

/** The hyper-parameters of Trainer's PGD-7 RPS step. */
twoinone::TrainConfig trainConfig(uint64_t seed, int batch);

/**
 * RPS PGD-7 adversarial training through the public calls
 * Trainer::fit makes (RpsEngine::setPrecision, PgdAttack::perturb,
 * Network::forward/backward, Sgd::step, RpsEngine::refreshDirty),
 * epoch after epoch over @p data, until @p seconds pass or
 * @p max_steps steps ran. @p rng is the trainer's stream.
 */
TrainStats trainLoop(twoinone::Network &net, twoinone::RpsEngine &engine,
                     twoinone::Sgd &sgd, const twoinone::Dataset &data,
                     const twoinone::TrainConfig &cfg, twoinone::Rng &rng,
                     double seconds, uint64_t max_steps, Tracer *tr);

/** Training-layer metrics from the spans of a traced trainLoop. */
void trainLayerMetrics(const std::vector<Span> &spans,
                       const TrainStats &ts, RunResult &r);

/** A short traced training run on a copy of a serving workload's
 * model (so its training-layer metrics exist on every workload). */
void trainingProbe(const std::string &artifact,
                   const std::vector<int> &shape, int num_classes,
                   uint64_t seed, uint64_t steps, int batch, Tracer *tr,
                   RunResult &r);

// ---- layer probes (layers.cc) ---------------------------------------

/** Plan, executor replay, precision install and checkpoint I/O of a
 * serving session; the metrics come from the spans recorded in @p tr
 * (not null). */
void servingProbes(twoinone::Session &s,
                   const twoinone::serve::ServeConfig &scfg,
                   const std::vector<int> &input_shape,
                   int replay_rows, const std::string &artifact,
                   uint64_t seed, Tracer *tr, RunResult &r);

/** Packed igemm on the ResNet-50 stand-in's conv GEMM shapes plus the
 * sq256 8-bit ceiling, and sgemm on the training conv shapes, from the
 * spans recorded in @p tr (not null). */
void kernelProbes(uint64_t seed, Tracer *tr, RunResult &r);

/** Engine cache counters over the run. */
void engineCounters(twoinone::RpsEngine &e, RunResult &r);

/** Per-layer self times, span count, coverage (fails @p r outside
 * 1 +- 1%) and the Chrome trace file. */
void traceMetrics(const Tracer &tr, const Options &o, RunResult &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
