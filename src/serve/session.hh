/**
 * @file
 * twoinone::Session — the user-facing deployment facade.
 *
 * Before sessions, standing a trained RPS model up for serving took a
 * five-step caller ritual: construct the model, attach an RpsEngine,
 * run the Calibrator, compile plans, wrap the lot in a serving
 * front-end. A Session is that wiring behind one object:
 *
 *   auto s = Session::fromCheckpoint("model.ckpt");
 *   s.serve(requests);            // batched RPS serving
 *   s.predict(x);                 // predictions on compiled plans
 *   s.switchPrecision(8);         // explicit precision control
 *   s.stats(); s.precisionTrace();
 *
 * Construction paths:
 *  - fromCheckpoint(path): rebuild the network from its persisted
 *    spec + state; when the artifact carries a serialized weight-code
 *    cache, the engine warm-starts from it — zero quantization passes
 *    before the first served batch.
 *  - fromNetwork(net): take ownership of an in-process model (e.g.
 *    fresh out of the Trainer) and wire the same stack.
 *  - attach(net): non-owning variant for callers that keep driving
 *    the network directly (the evaluation harness). The session's
 *    plans are its own: the network's own entry points keep running
 *    its layer loop (forward) and its unfused reference plan
 *    (forwardQuantized), during and after the session.
 *
 * Batched serving (submit/drain/serve) runs on a session-owned,
 * single-tenant serve::Server built on first submit: paused, with
 * age closing off, no deadline and the real SteadyClock. Batches
 * therefore form only when drain() flushes, on the draining thread,
 * and their composition depends only on submission order.
 *
 * The underlying pieces stay reachable (network()/engine()) — the
 * facade narrows the default path, it does not wall off the internals.
 */

#ifndef TWOINONE_SERVE_SESSION_HH
#define TWOINONE_SERVE_SESSION_HH

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "io/checkpoint.hh"
#include "nn/network.hh"
#include "quant/rps_engine.hh"
#include "serve/runtime.hh"
#include "serve/server.hh"
#include "tune/artifact.hh"

namespace twoinone {

/**
 * Session construction options.
 */
struct SessionConfig
{
    /** Serving-loop configuration (batch geometry, datapath mode,
     * sampling seed, replicas). lazyPlanWarmup defaults on for
     * sessions: cold start pays one structural pass instead of one
     * dry pass per candidate. */
    serve::ServeConfig serving = defaultServing();

    /** Per-request image shape [C, H, W...]; empty = derived from the
     * first submitted request. */
    std::vector<int> inputShape;

    /** Engine cache candidates; empty = the network's full bound
     * set. A non-empty set overrides a serialized code cache (the
     * cache is built fresh for the requested subset). */
    PrecisionSet cacheSet;

    /** Warm-start the engine from a serialized code cache when the
     * checkpoint carries one. */
    bool restoreEngineCache = true;

    /** @name Streaming artifacts & cache budgets
     * streamArtifact makes fromCheckpoint() hydrate lazily: header +
     * directory + model state load eagerly, while engine code cells
     * (the dominant payload on ImageNet-class shapes) stay on disk
     * and fault in per (layer, precision) on first install — peak RSS
     * of a warm start drops from ~artifact size to ~model state plus
     * the resident cells. cacheBudgetBytes (0 = unlimited) caps the
     * engine cache with LRU-by-(layer, precision) eviction; evicted
     * cells rehydrate from the artifact (or re-quantize from the
     * masters), bit-identically. pinnedBits lists precisions never
     * evicted. The budget applies to session-owned engines on every
     * construction path; pinned precisions must be cached candidates. */
    /** @{ */
    bool streamArtifact = false;
    size_t cacheBudgetBytes = 0;
    std::vector<int> pinnedBits;
    /** @} */

    /** Auto-apply a checkpoint's tuning section (serving autotuner
     * winner) to the serving config: batch geometry, replicas,
     * precision draw distribution. The artifact stays readable via
     * tuningArtifact() either way (an external serve::Server adopts
     * the server-scoped knobs — max delay, scheduling policy — from
     * it). */
    bool applyTuning = true;

    /** @name Artifact-load resilience
     * fromCheckpoint() retries a failed parse/instantiate up to
     * loadRetries extra times (a transiently corrupt read — a racing
     * writer, flaky storage — often succeeds on the next attempt),
     * sleeping loadRetryBackoffMs doubled per attempt between tries.
     * Exhaustion rethrows the last io::CheckpointError — a
     * recoverable condition the caller can degrade on, never a
     * crash. onLoadRetry (when set) observes each failed attempt
     * (1-based) and its error before the backoff sleep — the scenario
     * harness journals these. */
    /** @{ */
    int loadRetries = 0;
    int loadRetryBackoffMs = 0;
    std::function<void(int attempt, const std::string &error)>
        onLoadRetry;
    /** @} */

    static serve::ServeConfig
    defaultServing()
    {
        serve::ServeConfig c;
        c.lazyPlanWarmup = true;
        return c;
    }
};

/**
 * A deployed RPS model: network + precision-switch engine + batched
 * serving front door behind one facade. Movable, non-copyable.
 */
class Session
{
  public:
    /** Load a model artifact and wire the serving stack around it,
     * retrying per SessionConfig::loadRetries (throws
     * io::CheckpointError once the artifact stays malformed through
     * every attempt — recoverable, the process stays healthy). */
    static Session fromCheckpoint(const std::string &path,
                                  SessionConfig cfg = SessionConfig());

    /** Take ownership of @p net and wire the serving stack. */
    static Session fromNetwork(Network net,
                               SessionConfig cfg = SessionConfig());

    /** Wire the serving stack around a caller-owned network. Its
     * active precision is left wherever the last switch put it. */
    static Session attach(Network &net,
                          SessionConfig cfg = SessionConfig());

    /** attach() variant sharing a caller-owned engine instead of
     * building a fresh one: sessions multiplexed over one model by
     * serve::Server must share its weight-code cache (quantizing the
     * same weights once per tenant would duplicate the dominant
     * cold-start cost and double-install precisions). @p engine must
     * be built on @p net; it outlives the session. */
    static Session attach(Network &net, RpsEngine &engine,
                          SessionConfig cfg = SessionConfig());

    Session(Session &&) noexcept = default;
    Session &operator=(Session &&) noexcept;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** @name Precision control */
    /** @{ */
    /** Switch the active precision through the engine cache
     * (O(#layers)); 0 = full precision. A precision outside the
     * model's bound set is caller data gone wrong, not a library
     * bug: the call throws serve::ServeError *before* touching the
     * engine, so the previously installed precision keeps serving
     * bit-identically. */
    void switchPrecision(int bits);
    /** Sample a candidate uniformly, switch to it, return it. */
    int switchRandom(Rng &rng);
    int activePrecision() const;
    /** The engine's candidate set. */
    const PrecisionSet &candidates() const { return eng().set(); }
    /** @} */

    /** @name Direct inference (active precision)
     * predict / predictQuantized / forwardQuantized run the session's
     * compiled (fused) plans, bit-identical to the network's eval
     * forward and its unfused reference plan.
     * A plan compiles on first use for the call's input shape and
     * recompiles when a later call's batch grows past it or its
     * trailing dims differ. */
    /** @{ */
    /** Logits on the float fake-quant datapath (the eval layer
     * loop). */
    Tensor forward(const Tensor &x);
    /** Logits on the integer-code datapath. */
    Tensor forwardQuantized(const Tensor &x);
    std::vector<int> predict(const Tensor &x);
    std::vector<int> predictQuantized(const Tensor &x);
    /** @} */

    /** @name Batched RPS serving */
    /** @{ */
    /** Serve a burst of requests: submit all, drain, return each
     * request's logits in order. One random precision per serving
     * batch, drawn from the engine's candidate set. */
    std::vector<Tensor> serve(const std::vector<Tensor> &requests);
    /**
     * Queue a request of x.dim(0) images; returns its id. A malformed
     * request — wrong rank, wrong image shape, empty, or more rows
     * than the serving-batch capacity — throws serve::ServeError,
     * counted in ServeStats::rejected. More than
     * serve::ServerConfig::queueCapacity (1024) requests queued
     * before a drain sheds the excess with serve::ServeError, counted
     * in ServeStats::shed. Either way nothing is queued and the
     * session keeps serving.
     */
    size_t submit(Tensor x);
    /** Serve everything queued, on the calling thread, packing whole
     * requests into serving batches; returns when all results are
     * ready. */
    void drain();
    /** Logits of request @p id (valid after drain(), until
     * clearServed()). */
    const Tensor &result(size_t id) const;
    /** Release the results of every drained request (ids stay
     * allocated; result() on a released id panics). Long-lived
     * submit/drain loops call this after consuming results. */
    void clearServed();
    /** Precisions sampled so far, one per served batch (empty before
     * the first drain). */
    const std::vector<int> &precisionTrace() const;
    /** Serving stats; wallSeconds (and so qps) sums batch execution
     * time, not drain wall time. */
    serve::ServeStats stats() const;
    /** @} */

    /** @name Calibration & persistence */
    /** @{ */
    /** Record activation ranges over @p batches and flip the model to
     * static-scale quantization (persisted by save()). */
    void calibrate(const std::vector<Tensor> &batches);
    /** Write the model artifact: arch spec, weights, BN banks,
     * calibration banks, and (by default) the engine code cache. When
     * the session carries a tuning artifact it is embedded too, so
     * save/load round-trips preserve the autotuned configuration. */
    void save(const std::string &path,
              bool include_engine_cache = true);
    /** save() variant with full control over the artifact sections
     * (engine packs, explicit tuning artifact, ...). */
    void save(const std::string &path,
              const checkpoint::SaveOptions &opts);
    /** @} */

    /** @name Escape hatches */
    /** @{ */
    Network &network() { return *net_; }
    RpsEngine &engine() { return eng(); }
    /** The construction-time configuration (a serve::Server reads
     * the serving geometry and input shape of its tenants). */
    const SessionConfig &config() const { return cfg_; }
    /** The tuning artifact this session loaded from its checkpoint
     * (null when the artifact had no tuning section or the session
     * was not checkpoint-built). */
    const tune::TuningArtifact *tuningArtifact() const
    {
        return tuning_.get();
    }
    /** Attach @p artifact to the session (persisted by save(); the
     * serving config is NOT re-derived — call tune::applyGenome
     * before the first submit to change live behavior). */
    void setTuningArtifact(const tune::TuningArtifact &artifact);
    /** @} */

  private:
    Session(std::unique_ptr<Network> owned, Network *net,
            SessionConfig cfg, std::unique_ptr<RpsEngine> engine,
            RpsEngine *shared_engine = nullptr);

    /** The precision engine in use: the shared caller-owned one when
     * attached with one, else the session-owned engine. */
    RpsEngine &eng() const
    {
        return extEngine_ != nullptr ? *extEngine_ : *engine_;
    }

    /** The session's single-tenant server, built on first use
     * (derives the request shape from @p first when the config left
     * it empty). */
    serve::Server &server(const Tensor &first);

    /** The session's @p mode plan, (re)compiled for @p x's shape
     * when none exists yet or @p x does not fit the current one. */
    serve::ExecutionPlan &plan(serve::PlanMode mode, const Tensor &x);

    SessionConfig cfg_;
    std::unique_ptr<Network> owned_; ///< null for attach()
    Network *net_ = nullptr;
    std::unique_ptr<RpsEngine> engine_;
    /** Non-owning shared engine (attach(net, engine)); when set,
     * engine_ stays null. */
    RpsEngine *extEngine_ = nullptr;
    /** Declared after the engine and the owned network, so it stops
     * (and its executor releases its plans) before they die. */
    std::unique_ptr<serve::Server> server_;
    /** Logits of drained requests not yet released: request id
     * firstResult_ + i lives in results_[i]; the ids after them await
     * the next drain in pending_. */
    std::deque<Tensor> results_;
    std::deque<std::future<serve::Reply>> pending_;
    size_t firstResult_ = 0;
    /** Tuning artifact carried by the loaded checkpoint (if any). */
    std::unique_ptr<tune::TuningArtifact> tuning_;
    std::unique_ptr<serve::ExecutionPlan> floatPlan_;
    std::unique_ptr<serve::ExecutionPlan> quantPlan_;
};

} // namespace twoinone

#endif // TWOINONE_SERVE_SESSION_HH
