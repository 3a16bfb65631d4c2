/**
 * @file
 * The three workloads. Each measures its end-to-end metrics with
 * tracing off; with --trace 1 the measured window is split into an
 * untraced and a traced half (their difference is the tracing
 * overhead), and the layer probes run after it so every per-layer
 * metric is reported on every workload.
 *
 * Constants below were chosen once from the measured capacity of the
 * stand-ins on a 4-core AVX-512 VNNI host and are frozen: a later
 * change is judged against the same rates and limits.
 */

#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "nn/model_zoo.hh"
#include "quant/calibration.hh"
#include "stats.hh"
#include "workloads/model_library.hh"

namespace perfbench {

using namespace twoinone;

namespace {

const std::vector<int> kMiniShape{3, 8, 8};
const std::vector<int> kR50Shape{3, 32, 32};

/** mini_poisson: the nominal rate at which p50/p99 are reported (about
 * a quarter of the saturated capacity of ~16k rows/s). */
constexpr double kNominalRowsPerS = 4000.0;
/** mini_poisson SLO ladder (rows/s) and its p99 limit. */
const std::vector<double> kLadderRowsPerS{4000,  6000,  8000,  10000,
                                          12000, 14000, 16000, 18000};
constexpr double kLadderP99LimitMs = 10.0;
constexpr double kRungSeconds = 1.5;
/** A run whose generator submitted half its requests later than this
 * after their due time fell behind its schedule and is invalid. (Its
 * occasional late submissions are charged to latency, which is timed
 * from the due time.) */
constexpr double kLateLimitMs = 1.0;

/** r50_closed: outstanding requests and rows per request. Two
 * requests fill a serving batch, so while one batch computes the next
 * is already queued: batches are always full and the loop cannot
 * lock into half-full batches. */
constexpr int kClients = 4;
constexpr int kR50Rows = 4;

/** rps_train: images per step and training-set size. */
constexpr int kTrainBatch = 8;
constexpr int kTrainImages = 512;

bool
isMini(const Options &o)
{
    return o.workload == "mini_poisson";
}

SessionConfig
sessionConfig(const std::string &workload, uint64_t seed)
{
    SessionConfig sc;
    sc.serving.mode = serve::PlanMode::Quantized;
    // The precision draw is pinned from the workload seed.
    sc.serving.seed = deriveSeed(seed, "precision-draw");
    if (workload == "r50_closed") {
        sc.serving.maxBatch = 2 * kR50Rows;
        sc.serving.microBatch = 2;
        sc.inputShape = kR50Shape;
    } else {
        sc.serving.maxBatch = 16;
        sc.serving.microBatch = 4;
        sc.inputShape = kMiniShape;
    }
    return sc;
}

serve::ServerConfig
serverConfig()
{
    serve::ServerConfig cfg;
    cfg.queueCapacity = 1 << 16; // the open loop never sheds at admission
    return cfg;
}

Network
miniModel(uint64_t seed)
{
    Rng rng(deriveSeed(seed, "model"));
    ModelConfig mc;
    mc.baseWidth = 16;
    return preActResNetMini(mc, rng);
}

void
calibrate(Network &net, const std::vector<int> &shape, uint64_t seed)
{
    Rng rng(deriveSeed(seed, "calibration"));
    std::vector<int> s{32};
    s.insert(s.end(), shape.begin(), shape.end());
    Calibrator cal(net);
    cal.calibrate({Tensor::uniform(s, rng, 0.0f, 1.0f)});
}

/** A loaded session and the single-tenant server in front of it. */
struct Served
{
    std::unique_ptr<Session> session;
    std::unique_ptr<serve::Server> server;
    int tenant = 0;

    void
    reset()
    {
        server.reset(); // the server holds a pointer to the session
        session.reset();
    }
};

/** setup_s: load the artifact, start the server, wait for the first
 * reply; the median of @p reps, keeping the last stack for the run. */
double
setupServing(const Options &o, const SessionConfig &sc, const Tensor &first,
             int reps, Served &sv, RunResult &r)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        sv.reset();
        uint64_t t0 = nowNs();
        sv.session = std::make_unique<Session>(
            Session::fromCheckpoint(o.artifact, sc));
        sv.server = std::make_unique<serve::Server>(serverConfig());
        sv.tenant = sv.server->addTenant(*sv.session);
        serve::Reply rep = sv.server->submit(sv.tenant, first).get();
        times.push_back(secondsSince(t0));
        if (rep.y.dim(0) != first.dim(0))
            r.fail("first reply has the wrong row count");
    }
    return median(times);
}

void
accountPhase(const PhaseResult &ph, RpsEngine &engine,
             const std::vector<Tensor> &pool, size_t sample, uint64_t seed,
             RunResult &r)
{
    uint64_t wrong = verifyReplies(engine, pool, ph, sample, seed);
    r.attempted += ph.attempted;
    r.failed += ph.failed + wrong;
    r.info["verify.checked"] += static_cast<double>(
        std::min(sample, ph.replies.size()));
    if (wrong)
        r.fail(std::to_string(wrong) +
               " served replies differ from forwardQuantizedAt");
}

/** Open-loop honesty: latency is timed from the due time, but a
 * generator that fell behind offered less load than scheduled. */
void
checkLateness(const PhaseResult &ph, RunResult &r)
{
    double p50 = quantile(ph.lateMs, 0.5), p99 = quantile(ph.lateMs, 0.99);
    r.info["loadgen.late_ms_p50"] = std::max(r.info["loadgen.late_ms_p50"], p50);
    r.info["loadgen.late_ms_p99"] = std::max(r.info["loadgen.late_ms_p99"], p99);
    if (p50 > kLateLimitMs)
        r.fail("load generator fell behind its schedule (median lateness " +
               std::to_string(p50) + " ms): run invalid");
}

/** Sub-windows a measured window is sliced into (see
 * windowedQuantile). */
constexpr int kWindows = 10;

void
endToEnd(RunResult &r, double rows_per_s, double p50_ms, double setup_s)
{
    r.e2e("rows_per_s", rows_per_s, "rows/s");
    r.e2e("p50_ms", p50_ms, "ms");
    r.e2e("ok_frac",
          r.attempted ? 1.0 - static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                      : 0.0,
          "frac");
    r.e2e("setup_s", setup_s, "s");
    r.e2e("peak_rss_mb", peakRssMb(), "MB");
}

/** Pooled latency figures kept in the full record beside the
 * windowed p50 (the p99 is a per-layer metric, see README). */
void
latencyInfo(RunResult &r, const std::vector<double> &lat_ms)
{
    r.info["latency.samples"] = static_cast<double>(lat_ms.size());
    r.info["latency.pooled_p50_ms"] = quantile(lat_ms, 0.5);
    r.info["latency.pooled_p99_ms"] = quantile(lat_ms, 0.99);
    r.info["latency.pooled_p999_ms"] = quantile(lat_ms, 0.999);
}

/** Share by which @p traced is worse than @p untraced, in %. */
double
overheadPct(double untraced, double traced, bool higher_is_better)
{
    if (untraced <= 0.0)
        return 0.0;
    double d = higher_is_better ? untraced - traced : traced - untraced;
    return 100.0 * d / untraced;
}

/** The layer probes every traced serving workload runs after its
 * measured window. */
void
servingWorkloadProbes(const Options &o, Served &sv, const SessionConfig &sc,
                      double batch_rows_mean, int num_classes,
                      uint64_t train_steps, int train_batch, Tracer &tr,
                      RunResult &r)
{
    servingProbes(*sv.session, sc.serving, sc.inputShape,
                  static_cast<int>(std::lround(batch_rows_mean)),
                  o.artifact, o.seed, &tr, r);
    kernelProbes(o.seed, &tr, r);
    trainingProbe(o.artifact, sc.inputShape, num_classes, o.seed,
                  train_steps, train_batch, &tr, r);
}

void
ceilingFraction(RunResult &r)
{
    double ceil = r.perLayer["tensor.igemm.gops.b8.sq256"].value;
    double conv = r.perLayer["serve.plan.conv_gops.b8"].value;
    r.layer("serve.plan.conv_ceiling_frac.b8", ceil > 0 ? conv / ceil : 0.0,
            "frac");
}

} // namespace

int
poolThreads(const std::string &workload)
{
    int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    // mini_poisson: the dispatcher runs the pool's first chunk, so
    // nproc - 1 pool threads keep one core free for the generator,
    // which otherwise wakes late behind a busy batch (p99 spread
    // across seeds fell from 76% to 3%).
    return workload == "mini_poisson" ? std::max(1, nproc - 1) : nproc;
}

void
prepareArtifact(const Options &o)
{
    if (o.workload == "rps_train")
        return; // builds its model in-process
    SessionConfig sc = sessionConfig(o.workload, o.seed);
    Network net = isMini(o) ? miniModel(o.seed) : [&] {
        Rng rng(deriveSeed(o.seed, "model"));
        return workloads::servableResNet50(rng);
    }();
    // Static activation scales make each row's logits independent of
    // the batch it is served in, which the bit-exact check relies on.
    calibrate(net, sc.inputShape, o.seed);
    Session s = Session::fromNetwork(std::move(net), sc);
    s.save(o.artifact);
}

void
runMiniPoisson(const Options &o, RunResult &r)
{
    SessionConfig sc = sessionConfig(o.workload, o.seed);
    std::vector<Tensor> pool =
        requestPool(deriveSeed(o.seed, "inputs"), 1024, 1, 4, kMiniShape);
    Served sv;
    double setup_s = setupServing(o, sc, pool[0], 15, sv, r);
    uint64_t arrivals = deriveSeed(o.seed, "arrivals");
    uint64_t verify_seed = deriveSeed(o.seed, "verify");
    RpsEngine &engine = sv.session->engine();

    if (!o.trace) {
        PhaseResult ph = openLoop(*sv.server, sv.tenant, pool,
                                  kNominalRowsPerS, o.seconds, arrivals,
                                  nullptr);
        accountPhase(ph, engine, pool, 2000, verify_seed, r);
        checkLateness(ph, r);
        drawCheck(sv.server->precisionTrace(sv.tenant),
                  engine.set().bits(), r);
        latencyInfo(r, ph.latMs);
        // Rows served over the window including its drain: the offered
        // rate while the server keeps up, less when it falls behind.
        endToEnd(r, static_cast<double>(ph.rows) / ph.wallS,
                 windowedQuantile(ph.atS, ph.latMs, o.seconds, o.seconds,
                                  0.5),
                 setup_s);
        return;
    }

    Tracer tr;
    PhaseResult plain = openLoop(*sv.server, sv.tenant, pool,
                                 kNominalRowsPerS, o.seconds / 2.0, arrivals,
                                 nullptr);
    accountPhase(plain, engine, pool, 1000, verify_seed, r);
    checkLateness(plain, r);
    serve::ServeStats before = sv.server->stats();
    PhaseResult ph = openLoop(*sv.server, sv.tenant, pool, kNominalRowsPerS,
                              o.seconds / 2.0, arrivals, &tr);
    serve::ServeStats after = sv.server->stats();
    accountPhase(ph, engine, pool, 1000, verify_seed, r);
    checkLateness(ph, r);
    r.layer("trace.overhead_pct",
            overheadPct(quantile(plain.latMs, 0.5), quantile(ph.latMs, 0.5),
                        false),
            "%");
    r.layer("loadgen.p99_ms", quantile(ph.latMs, 0.99), "ms");

    // The SLO ladder: highest fixed rate meeting the p99 limit.
    std::vector<Rung> rungs;
    for (size_t i = 0; i < kLadderRowsPerS.size(); ++i) {
        PhaseResult rp = openLoop(
            *sv.server, sv.tenant, pool, kLadderRowsPerS[i], kRungSeconds,
            deriveSeed(o.seed, "rung" + std::to_string(i)), nullptr);
        Rung g{kLadderRowsPerS[i], quantile(rp.latMs, 0.99), rp.drainMs,
               rp.failed};
        rungs.push_back(g);
        r.info["ladder.p99_ms@" + std::to_string(int(g.rowsPerS))] = g.p99Ms;
        if (sloRate({g}, kLadderP99LimitMs) == 0.0)
            break; // every higher rung misses too
    }
    r.info["loadgen.slo_qps"] = sloRate(rungs, kLadderP99LimitMs);

    const std::vector<int> &cands = engine.set().bits();
    drawCheck(sv.server->precisionTrace(sv.tenant), cands, r);
    serverLayerMetrics(ph, tr.spans(), before, after,
                       sv.server->precisionTrace(sv.tenant), cands, r);
    engineCounters(engine, r);
    sv.server->stop();
    double batch_rows = r.perLayer["serve.server.batch_rows_mean"].value;
    servingWorkloadProbes(o, sv, sc, batch_rows, 10, 8, kTrainBatch, tr, r);
    ceilingFraction(r);
    traceMetrics(tr, o, r);
}

void
runR50Closed(const Options &o, RunResult &r)
{
    SessionConfig sc = sessionConfig(o.workload, o.seed);
    std::vector<Tensor> pool = requestPool(deriveSeed(o.seed, "inputs"), 64,
                                           kR50Rows, kR50Rows, kR50Shape);
    Served sv;
    double setup_s = setupServing(o, sc, pool[0], 5, sv, r);
    uint64_t verify_seed = deriveSeed(o.seed, "verify");
    RpsEngine &engine = sv.session->engine();
    const std::vector<int> &cands = engine.set().bits();

    if (!o.trace) {
        PhaseResult ph = closedLoop(*sv.server, sv.tenant, pool, kClients,
                                    o.seconds, nullptr);
        accountPhase(ph, engine, pool, 48, verify_seed, r);
        drawCheck(sv.server->precisionTrace(sv.tenant), cands, r);
        latencyInfo(r, ph.latMs);
        endToEnd(r, windowedRate(ph.atS, ph.rowsOf, o.seconds, kWindows),
                 windowedQuantile(ph.atS, ph.latMs, o.seconds, kWindows, 0.5),
                 setup_s);
        return;
    }

    Tracer tr;
    PhaseResult plain = closedLoop(*sv.server, sv.tenant, pool, kClients,
                                   o.seconds / 2.0, nullptr);
    accountPhase(plain, engine, pool, 24, verify_seed, r);
    serve::ServeStats before = sv.server->stats();
    PhaseResult ph = closedLoop(*sv.server, sv.tenant, pool, kClients,
                                o.seconds / 2.0, &tr);
    serve::ServeStats after = sv.server->stats();
    accountPhase(ph, engine, pool, 24, verify_seed, r);
    r.layer("trace.overhead_pct",
            overheadPct(static_cast<double>(plain.rows) / plain.wallS,
                        static_cast<double>(ph.rows) / ph.wallS, true),
            "%");
    r.layer("loadgen.p99_ms", quantile(ph.latMs, 0.99), "ms");
    drawCheck(sv.server->precisionTrace(sv.tenant), cands, r);
    serverLayerMetrics(ph, tr.spans(), before, after,
                       sv.server->precisionTrace(sv.tenant), cands, r);
    engineCounters(engine, r);
    sv.server->stop();
    double batch_rows = r.perLayer["serve.server.batch_rows_mean"].value;
    servingWorkloadProbes(o, sv, sc, batch_rows, 100, 3, 2, tr, r);
    ceilingFraction(r);
    traceMetrics(tr, o, r);
}

void
runRpsTrain(const Options &o, RunResult &r)
{
    SyntheticConfig dc;
    dc.trainSize = kTrainImages;
    dc.testSize = 1;
    dc.seed = deriveSeed(o.seed, "data");
    Dataset data = makeSynthetic(dc, "rps_train").train;
    TrainConfig cfg = trainConfig(deriveSeed(o.seed, "trainer"), kTrainBatch);

    // The decomposed loop must reproduce Trainer::fit bit for bit.
    {
        Dataset shard = data.batch(0, 2 * kTrainBatch);
        Network a = miniModel(o.seed), b = miniModel(o.seed);
        Trainer trainer(a, cfg);
        trainer.fit(shard);
        RpsEngine eng(b);
        Sgd sgd(cfg.lr, cfg.momentum, cfg.weightDecay);
        Rng rng(cfg.seed);
        trainLoop(b, eng, sgd, shard, cfg, rng, 1e9, 2, nullptr);
        if (paramDigest(a) != paramDigest(b))
            r.fail("decomposed training loop diverges from Trainer::fit");
    }

    // setup_s: build the model and engine, run the first step.
    std::unique_ptr<Network> net;
    std::unique_ptr<RpsEngine> engine;
    std::unique_ptr<Sgd> sgd;
    std::unique_ptr<Rng> rng;
    std::vector<double> times;
    uint64_t first_digest = 0;
    for (int i = 0; i < 9; ++i) {
        engine.reset();
        uint64_t t0 = nowNs();
        net = std::make_unique<Network>(miniModel(o.seed));
        engine = std::make_unique<RpsEngine>(*net);
        sgd = std::make_unique<Sgd>(cfg.lr, cfg.momentum, cfg.weightDecay);
        rng = std::make_unique<Rng>(cfg.seed);
        trainLoop(*net, *engine, *sgd, data, cfg, *rng, 1e9, 1, nullptr);
        times.push_back(secondsSince(t0));
        uint64_t d = paramDigest(*net);
        if (i == 0)
            first_digest = d;
        else if (d != first_digest)
            r.fail("the first training step is not deterministic");
    }
    double setup_s = median(times);

    auto account = [&](const TrainStats &ts) {
        r.attempted += ts.steps;
        r.failed += ts.nonFinite;
        if (ts.nonFinite)
            r.fail("non-finite training loss");
    };
    const std::vector<int> cands = net->precisionSet().bits();
    if (!o.trace) {
        TrainStats ts = trainLoop(*net, *engine, *sgd, data, cfg, *rng,
                                  o.seconds, UINT64_MAX, nullptr);
        account(ts);
        drawCheck(ts.drawn, cands, r);
        r.info["train.param_digest_lo32"] =
            static_cast<double>(paramDigest(*net) & 0xffffffffULL);
        latencyInfo(r, ts.stepMs);
        std::vector<double> imgs(ts.endS.size(), kTrainBatch);
        endToEnd(r, windowedRate(ts.endS, imgs, o.seconds, kWindows),
                 windowedQuantile(ts.endS, ts.stepMs, o.seconds, kWindows, 0.5),
                 setup_s);
        return;
    }

    Tracer tr;
    TrainStats plain = trainLoop(*net, *engine, *sgd, data, cfg, *rng,
                                 o.seconds / 2.0, UINT64_MAX, nullptr);
    account(plain);
    TrainStats ts = trainLoop(*net, *engine, *sgd, data, cfg, *rng,
                              o.seconds / 2.0, UINT64_MAX, &tr);
    account(ts);
    std::vector<int> drawn = plain.drawn;
    drawn.insert(drawn.end(), ts.drawn.begin(), ts.drawn.end());
    drawCheck(drawn, cands, r);
    r.layer("trace.overhead_pct",
            overheadPct(plain.images / plain.wallS, ts.images / ts.wallS,
                        true),
            "%");
    r.layer("loadgen.p99_ms", quantile(ts.stepMs, 0.99), "ms");
    trainLayerMetrics(tr.spans(), ts, r);
    engineCounters(*engine, r);
    engine.reset();

    // Serve the trained model: calibrate, save, load, and run a short
    // open-loop burst at the mini_poisson nominal rate.
    calibrate(*net, kMiniShape, o.seed);
    SessionConfig sc = sessionConfig("mini_poisson", o.seed);
    Session::fromNetwork(std::move(*net), sc).save(o.artifact);
    Served sv;
    std::vector<Tensor> pool =
        requestPool(deriveSeed(o.seed, "inputs"), 1024, 1, 4, kMiniShape);
    setupServing(o, sc, pool[0], 1, sv, r);
    serve::ServeStats before = sv.server->stats();
    PhaseResult ph = openLoop(*sv.server, sv.tenant, pool, kNominalRowsPerS,
                              1.5, deriveSeed(o.seed, "arrivals"), &tr);
    serve::ServeStats after = sv.server->stats();
    accountPhase(ph, sv.session->engine(), pool, 500,
                 deriveSeed(o.seed, "verify"), r);
    checkLateness(ph, r);
    drawCheck(sv.server->precisionTrace(sv.tenant), cands, r);
    serverLayerMetrics(ph, tr.spans(), before, after,
                       sv.server->precisionTrace(sv.tenant), cands, r);
    sv.server->stop();
    servingProbes(*sv.session, sc.serving, kMiniShape,
                  static_cast<int>(std::lround(
                      r.perLayer["serve.server.batch_rows_mean"].value)),
                  o.artifact, o.seed, &tr, r);
    kernelProbes(o.seed, &tr, r);
    ceilingFraction(r);
    traceMetrics(tr, o, r);
}

} // namespace perfbench
