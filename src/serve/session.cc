/**
 * @file
 * Session implementation.
 */

#include "serve/session.hh"

#include <chrono>
#include <new>
#include <thread>

#include "io/checkpoint.hh"
#include "quant/calibration.hh"
#include "tensor/ops.hh"
#include "tune/autotuner.hh"

namespace twoinone {

namespace {

/** The engine cache set a session config asks for: the explicit
 * subset when given, else the network's full bound set. */
PrecisionSet
engineSet(const SessionConfig &cfg, const Network &net)
{
    return cfg.cacheSet.empty() ? net.precisionSet() : cfg.cacheSet;
}

/** Retry-with-backoff around an artifact open/parse: transient
 * corruption (a racing writer, flaky storage) often clears on the
 * next attempt; persistent corruption exhausts the budget and
 * surfaces the last CheckpointError to the caller — recoverable,
 * never a crash. */
template <typename Fn>
auto
loadWithRetries(const SessionConfig &cfg, Fn &&fn) -> decltype(fn())
{
    int attempts = 1 + std::max(0, cfg.loadRetries);
    for (int a = 1;; ++a) {
        try {
            return fn();
        } catch (const io::CheckpointError &e) {
            if (a >= attempts)
                throw;
            if (cfg.onLoadRetry)
                cfg.onLoadRetry(a, e.what());
            if (cfg.loadRetryBackoffMs > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    cfg.loadRetryBackoffMs << (a - 1)));
            }
        }
    }
}

} // namespace

Session::Session(std::unique_ptr<Network> owned, Network *net,
                 SessionConfig cfg, std::unique_ptr<RpsEngine> engine,
                 RpsEngine *shared_engine)
    : cfg_(std::move(cfg)), owned_(std::move(owned)), net_(net),
      engine_(std::move(engine)), extEngine_(shared_engine)
{
    TWOINONE_ASSERT(net_ != nullptr, "session needs a network");
    TWOINONE_ASSERT(!net_->precisionSet().empty(),
                    "session needs an RPS-capable network "
                    "(non-empty precision set)");
    TWOINONE_ASSERT(extEngine_ == nullptr || engine_ == nullptr,
                    "a session holds one engine: owned or shared");
    if (!engine_ && extEngine_ == nullptr)
        engine_ = std::make_unique<RpsEngine>(*net_,
                                              engineSet(cfg_, *net_));
    // Byte budget / pins apply to the session-owned engine on every
    // construction path (a shared engine's policy belongs to its
    // owner). A pinned precision outside the cache set is caller data
    // gone wrong — reject it here instead of panicking in the engine.
    if (engine_ &&
        (cfg_.cacheBudgetBytes > 0 || !cfg_.pinnedBits.empty())) {
        for (int b : cfg_.pinnedBits) {
            if (!engine_->set().contains(b))
                throw serve::ServeError(formatMessage(
                    "pinned precision ", b,
                    " is not in the engine cache set ",
                    engine_->set().name()));
        }
        EngineCacheConfig ec;
        ec.budgetBytes = cfg_.cacheBudgetBytes;
        ec.pinnedBits = cfg_.pinnedBits;
        engine_->setCacheConfig(std::move(ec));
    }
}

Session &
Session::operator=(Session &&other) noexcept
{
    // Tear down in destructor order first (plans and the engine
    // detach from the layers before an owned network dies); a
    // memberwise move would free the network first.
    if (this != &other) {
        this->~Session();
        new (this) Session(std::move(other));
    }
    return *this;
}

Session
Session::fromCheckpoint(const std::string &path, SessionConfig cfg)
{
    if (cfg.streamArtifact) {
        // Streaming load: header + directory + model state hydrate
        // eagerly (inside the retry budget — that is where framing
        // corruption surfaces); the engine code cells stay on disk
        // and fault in per (layer, precision) on first install.
        auto sckpt = loadWithRetries(cfg, [&] {
            return std::make_shared<checkpoint::StreamingCheckpoint>(
                path);
        });
        if (sckpt->spec().precisions.empty())
            throw io::CheckpointError(
                path +
                " holds a model with no candidate precision set — "
                "not servable through a Session");
        auto net = std::make_unique<Network>(sckpt->instantiate());
        std::unique_ptr<tune::TuningArtifact> tuning;
        if (sckpt->tuning() != nullptr) {
            tuning =
                std::make_unique<tune::TuningArtifact>(*sckpt->tuning());
            if (cfg.applyTuning)
                tune::applyGenome(tuning->genome, cfg.serving);
        }
        std::unique_ptr<RpsEngine> engine;
        if (cfg.restoreEngineCache && cfg.cacheSet.empty())
            engine = checkpoint::StreamingCheckpoint::restoreEngine(
                sckpt, *net);
        Network *raw = net.get();
        Session s(std::move(net), raw, std::move(cfg),
                  std::move(engine));
        s.tuning_ = std::move(tuning);
        return s;
    }
    checkpoint::Checkpoint ckpt = loadWithRetries(
        cfg, [&] { return checkpoint::Checkpoint::read(path); });
    // Sessions require an RPS-capable model; the constructor treats a
    // precision-less network as a caller bug (panic), but here the
    // network comes from the artifact — recoverable input.
    if (ckpt.spec().precisions.empty())
        throw io::CheckpointError(
            path + " holds a model with no candidate precision set — "
                   "not servable through a Session");
    auto net = std::make_unique<Network>(ckpt.instantiate());
    // A tuning section carries the serving autotuner's winner: copy
    // it out before the checkpoint's cells move into the engine, and
    // (by default) apply its session-scoped knobs to the serving
    // config before serving ever starts.
    std::unique_ptr<tune::TuningArtifact> tuning;
    if (ckpt.tuning() != nullptr) {
        tuning = std::make_unique<tune::TuningArtifact>(*ckpt.tuning());
        if (cfg.applyTuning)
            tune::applyGenome(tuning->genome, cfg.serving);
    }
    std::unique_ptr<RpsEngine> engine;
    // A serialized code cache warm-starts the engine — unless the
    // caller asked for a different candidate subset, which the
    // artifact's full-set cache does not represent. The checkpoint is
    // local and dies here, so the cells move instead of copying.
    if (cfg.restoreEngineCache && cfg.cacheSet.empty())
        engine = std::move(ckpt).restoreEngine(*net);
    Network *raw = net.get();
    Session s(std::move(net), raw, std::move(cfg),
              std::move(engine));
    s.tuning_ = std::move(tuning);
    return s;
}

Session
Session::fromNetwork(Network net, SessionConfig cfg)
{
    auto owned = std::make_unique<Network>(std::move(net));
    Network *raw = owned.get();
    return Session(std::move(owned), raw, std::move(cfg), nullptr);
}

Session
Session::attach(Network &net, SessionConfig cfg)
{
    return Session(nullptr, &net, std::move(cfg), nullptr);
}

Session
Session::attach(Network &net, RpsEngine &engine, SessionConfig cfg)
{
    TWOINONE_ASSERT(&engine.network() == &net,
                    "shared engine must be built on the attached "
                    "network");
    return Session(nullptr, &net, std::move(cfg), nullptr, &engine);
}

void
Session::switchPrecision(int bits)
{
    // Reject before touching the engine: Network::setPrecision treats
    // an out-of-set precision as a library bug (panic), but at the
    // session boundary it is caller data — the installed precision
    // must keep serving bit-identically after the rejection.
    if (bits != 0 && !net_->precisionSet().contains(bits))
        throw serve::ServeError(formatMessage(
            "rejected precision switch: ", bits,
            " is not in the model's bound set ",
            net_->precisionSet().name()));
    eng().setPrecision(bits);
}

int
Session::switchRandom(Rng &rng)
{
    int bits = eng().samplePrecision(rng);
    switchPrecision(bits);
    return bits;
}

int
Session::activePrecision() const
{
    return eng().activePrecision();
}

serve::ExecutionPlan &
Session::plan(serve::PlanMode mode, const Tensor &x)
{
    std::unique_ptr<serve::ExecutionPlan> &slot =
        mode == serve::PlanMode::Float ? floatPlan_ : quantPlan_;
    if (!slot || !slot->fits(x))
        slot = net_->compile(net_->precisionSet(), mode, x.shape());
    return *slot;
}

Tensor
Session::forward(const Tensor &x)
{
    return net_->forward(x, /*train=*/false);
}

Tensor
Session::forwardQuantized(const Tensor &x)
{
    return plan(serve::PlanMode::Quantized, x).run(x);
}

std::vector<int>
Session::predict(const Tensor &x)
{
    return ops::argmaxRows(plan(serve::PlanMode::Float, x).run(x));
}

std::vector<int>
Session::predictQuantized(const Tensor &x)
{
    return ops::argmaxRows(plan(serve::PlanMode::Quantized, x).run(x));
}

serve::Server &
Session::server(const Tensor &first)
{
    if (!server_) {
        std::vector<int> shape = cfg_.inputShape;
        if (shape.empty()) {
            TWOINONE_ASSERT(first.ndim() > 1,
                            "session needs a request image shape "
                            "(SessionConfig::inputShape or a first "
                            "submitted batch)");
            for (int i = 1; i < first.ndim(); ++i)
                shape.push_back(first.dim(i));
        }
        // Batches form only in drain()'s flush, on the draining
        // thread, packed in submission order: paused dispatcher, no
        // age close, no deadline. The session-scoped tuning knobs are
        // already in cfg_.serving; the real clock keeps latency
        // stats honest.
        serve::ServerConfig sc;
        sc.startPaused = true;
        sc.maxBatchDelayUs = 0.0;
        sc.defaultDeadlineUs = 0;
        sc.adoptTuning = false;
        server_ = std::make_unique<serve::Server>(sc);
        server_->addTenant(*this, shape);
    }
    return *server_;
}

size_t
Session::submit(Tensor x)
{
    serve::Server &srv = server(x);
    pending_.push_back(srv.submit(0, std::move(x)));
    return firstResult_ + results_.size() + pending_.size() - 1;
}

void
Session::drain()
{
    TWOINONE_ASSERT(server_ != nullptr,
                    "drain() before any submit()");
    server_->flush();
    while (!pending_.empty()) {
        results_.push_back(std::move(pending_.front().get().y));
        pending_.pop_front();
    }
}

const Tensor &
Session::result(size_t id) const
{
    TWOINONE_ASSERT(id >= firstResult_, "request ", id,
                    " was released by clearServed()");
    size_t i = id - firstResult_;
    TWOINONE_ASSERT(i < results_.size() + pending_.size(),
                    "unknown request id");
    TWOINONE_ASSERT(i < results_.size(), "request ", id,
                    " not served yet — call drain()");
    return results_[i];
}

void
Session::clearServed()
{
    firstResult_ += results_.size();
    results_.clear();
}

std::vector<Tensor>
Session::serve(const std::vector<Tensor> &requests)
{
    if (requests.empty())
        return {}; // nothing submitted — there may be no server yet
    std::vector<size_t> ids;
    ids.reserve(requests.size());
    for (const Tensor &x : requests)
        ids.push_back(submit(x));
    drain();
    std::vector<Tensor> out;
    out.reserve(ids.size());
    for (size_t id : ids)
        out.push_back(std::move(results_[id - firstResult_]));
    clearServed();
    return out;
}

const std::vector<int> &
Session::precisionTrace() const
{
    static const std::vector<int> empty;
    return server_ ? server_->precisionTrace(0) : empty;
}

serve::ServeStats
Session::stats() const
{
    return server_ ? server_->stats() : serve::ServeStats();
}

void
Session::calibrate(const std::vector<Tensor> &batches)
{
    Calibrator cal(*net_);
    cal.calibrate(batches);
}

void
Session::save(const std::string &path, bool include_engine_cache)
{
    checkpoint::SaveOptions opts;
    opts.includeEngineCache = include_engine_cache;
    opts.tuning = tuning_.get(); // round-trips survive by default
    checkpoint::save(path, *net_, &eng(), opts);
}

void
Session::save(const std::string &path,
              const checkpoint::SaveOptions &opts)
{
    checkpoint::save(path, *net_, &eng(), opts);
}

void
Session::setTuningArtifact(const tune::TuningArtifact &artifact)
{
    tuning_ = std::make_unique<tune::TuningArtifact>(artifact);
}

} // namespace twoinone
