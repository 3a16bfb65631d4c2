/**
 * @file
 * The serving autotuner: searches the joint serving configuration
 * space (ServingGenome — batch geometry, age close, plan replicas,
 * precision-set composition + draw weights, scheduling policy) with
 * the generic evolutionary loop (optimizer/evolutionary.hh
 * evolveGenome over a ServingSearchSpace) against a hybrid objective:
 *
 *  - **Analytical precision/layer terms**: per-row cycle costs from
 *    `Accelerator::sweep` (PerformancePredictor, static-scale
 *    activation quantization — the calibrated serving datapath),
 *    weighted by the genome's precision draw distribution.
 *  - **Deterministic serving simulation** for the batching/replica/
 *    policy terms: a virtual-time event model of the Server's batch
 *    formation (size close / age close / flush, shard parallelism
 *    over a *nominal* worker count, per-batch switch+dispatch
 *    overhead, a two-tenant deadline round for the scheduling
 *    policy). Doubles only, no clocks, no thread-pool reads — the
 *    objective (and therefore the winning genome and TuningArtifact
 *    bytes) is a pure function of the tuning seed and the model.
 *
 * Measured probes — short `BatchExecutor::execute` runs on the live
 * model, memoized per batch geometry — calibrate a cycles→ns factor
 * on the default configuration and report the predicted-vs-measured
 * error per evaluated candidate, keeping the cost model falsifiable.
 * Probe timings feed *only* the reports, never the search or the
 * artifact.
 */

#ifndef TWOINONE_TUNE_AUTOTUNER_HH
#define TWOINONE_TUNE_AUTOTUNER_HH

#include <cstdint>
#include <vector>

#include "optimizer/serving_space.hh"
#include "serve/runtime.hh"
#include "tune/artifact.hh"

namespace twoinone {

class Session;

namespace tune {

/** Autotuner budget and knobs. */
struct TuneConfig
{
    /** Search seed (the artifact records it; same seed + same model =
     * same winning genome and artifact bytes). */
    uint64_t seed = 97;
    /** Evolutionary population per cycle. */
    int population = 12;
    /** Evolutionary cycles. */
    int cycles = 6;
    /** Run measured probes and fill the per-candidate error reports.
     * Off = pure analytical tuning (same winner; empty measurements —
     * the probes never feed the search). */
    bool measuredProbes = true;
    /** Rows per measured probe (clamped to the probed geometry's
     * maxBatch). */
    int probeRows = 16;
    /** Upper bound on searched maxBatch. */
    int maxBatchCap = 128;
};

/** One evaluated candidate with its predicted-vs-measured report. */
struct CandidateReport
{
    ServingGenome genome;
    /** Hybrid objective value (the search's cost). */
    double cost = 0.0;
    /** Calibrated per-row prediction at the probed precision (ns). */
    double predictedRowNs = 0.0;
    /** Measured per-row probe at the same geometry+precision (ns):
     * the fastest of several timed executes after a warm-up; 0 when
     * probes are disabled. */
    double measuredRowNs = 0.0;
    /** |predicted - measured| / measured * 100; 0 when unprobed. */
    double errorPct = 0.0;
};

/** Outcome of one autotune() run. */
struct TuneResult
{
    /** The deterministic winner (persist via checkpoint::SaveOptions
     * or TuningArtifact::bytes()). */
    TuningArtifact artifact;
    /** Winner's objective value. */
    double bestCost = 0.0;
    /** Best cost per cycle (convergence trace). */
    std::vector<double> costHistory;
    /** Distinct genomes the cost functor evaluated, in first-seen
     * order, each with its predicted-vs-measured report. */
    std::vector<CandidateReport> candidates;
    /** Cost-functor invocations (>= candidates.size(); duplicate
     * genomes re-use their memoized evaluation). */
    size_t evaluated = 0;
    /** Mean errorPct over probed candidates (0 when probes are off). */
    double meanErrorPct = 0.0;
    bool found = false;
};

/**
 * Tune @p session's serving configuration. Reads the model
 * architecture (for the analytical cost) and — when
 * cfg.measuredProbes — executes short probe batches through a
 * BatchExecutor on the session's network+engine; the session's
 * serving config itself is not modified (apply the winner via
 * applyGenome / checkpoint round-trip). The session must have a
 * non-empty SessionConfig::inputShape.
 */
TuneResult autotune(Session &session, const TuneConfig &cfg = TuneConfig());

/**
 * Apply @p genome's session-scoped knobs (batch geometry, replicas,
 * precision draw distribution) to @p serving in place. The
 * server-scoped knobs (max-delay, scheduling policy) live in
 * ServerConfig — serve::Server::addTenant adopts them from the first
 * tenant's artifact.
 */
void applyGenome(const ServingGenome &genome, serve::ServeConfig &serving);

} // namespace tune
} // namespace twoinone

#endif // TWOINONE_TUNE_AUTOTUNER_HH
