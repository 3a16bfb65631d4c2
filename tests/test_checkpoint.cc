/**
 * @file
 * Tests for the versioned model artifact and the Session facade
 * (ISSUE 5): spec-driven reconstruction, save -> load -> bit-identical
 * inference at every rps4to16 candidate (legacy and plan-executed),
 * calibration-bank persistence, engine warm start from the serialized
 * code cache (no rebuild, no cache miss), and the
 * corrupted/truncated/version-mismatch error paths. CMake re-runs
 * this binary under TWOINONE_THREADS=1/4 and TWOINONE_BACKEND=naive.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "io/checkpoint.hh"
#include "nn/loss.hh"
#include "nn/model_zoo.hh"
#include "nn/sgd.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/session.hh"

namespace twoinone {
namespace {

std::string
tmpPath(const std::string &name)
{
    // PID-qualified: ctest runs this binary four times (plain +
    // thread/backend matrix), possibly in parallel — fixed names
    // would let the variants delete each other's artifacts mid-test.
    return testing::TempDir() + "twoinone_" +
           std::to_string(::getpid()) + "_" + name + ".ckpt";
}

Network
makeResidualNet(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 8;
    return preActResNetMini(cfg, rng);
}

Network
makeTinyNet(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 4;
    return convNetTiny(cfg, rng);
}

Tensor
makeInput(uint64_t seed, int batch = 4)
{
    Rng rng(seed);
    return Tensor::uniform({batch, 3, 8, 8}, rng, 0.0f, 1.0f);
}

/** Touch BN banks the way training would: running stats move and the
 * banks claim independence from bank 0, so the checkpoint has
 * non-trivial SBN state to carry. */
void
trainBanks(Network &net, const Tensor &x)
{
    for (int bits : {0, net.precisionSet().bits().front(),
                     net.precisionSet().bits().back()}) {
        net.setPrecision(bits);
        net.forward(x, /*train=*/true);
    }
    net.setPrecision(0);
}

void
expectBitIdentical(const Tensor &a, const Tensor &b, int bits)
{
    ASSERT_EQ(a.shape(), b.shape()) << "bits=" << bits;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "bits=" << bits << " i=" << i;
}

/** Spec round trip: a rebuilt network has the same architecture. */
TEST(Checkpoint, SpecRebuildsIdenticalArchitecture)
{
    Network net = makeResidualNet(42);
    Network rebuilt = buildFromSpec(net.spec());
    ASSERT_EQ(rebuilt.numLayers(), net.numLayers());
    for (size_t i = 0; i < net.numLayers(); ++i)
        EXPECT_EQ(rebuilt.layer(i).describe(), net.layer(i).describe());
    EXPECT_EQ(rebuilt.precisionSet().bits(), net.precisionSet().bits());
    EXPECT_EQ(rebuilt.parameterCount(), net.parameterCount());
}

/** The acceptance criterion: save (weights + BN stats + calibration
 * banks + code cache), reload via Session::fromCheckpoint in a fresh
 * Network, and get bit-identical logits at every rps4to16 candidate —
 * cached float forward, integer forward, and plan-executed. */
TEST(Checkpoint, SaveLoadBitIdenticalAtEveryCandidate)
{
    Network net = makeResidualNet(43);
    Tensor x = makeInput(7);
    trainBanks(net, x);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);

    std::string path = tmpPath("roundtrip");
    checkpoint::save(path, net, &engine);

    Session s = Session::fromCheckpoint(path);
    for (int bits : net.precisionSet().bits()) {
        Tensor f_ref = engine.forwardAt(bits, x);
        Tensor q_ref = engine.forwardQuantizedAt(bits, x);
        s.switchPrecision(bits);
        // Plan-routed session forwards against the original's legacy
        // loops: bit-identity must hold across the process boundary
        // AND the execution-path boundary.
        expectBitIdentical(f_ref, s.forward(x), bits);
        expectBitIdentical(q_ref, s.forwardQuantized(x), bits);
    }
    engine.setPrecision(0);
    s.switchPrecision(0);
    expectBitIdentical(net.forward(x, false), s.forward(x), 0);
    std::remove(path.c_str());
}

/** Calibration banks persist: the static-scale path is active after
 * reload and reproduces the original's quantization-free forward. */
TEST(Checkpoint, CalibrationBanksPersist)
{
    Network net = makeTinyNet(44);
    Tensor x = makeInput(8);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);

    std::string path = tmpPath("calib");
    checkpoint::save(path, net, &engine);
    Session s = Session::fromCheckpoint(path);

    // Every reloaded quantizer still holds the recorded ranges and
    // static-scale mode.
    std::vector<ActQuant *> orig = net.actQuantLayers();
    std::vector<ActQuant *> restored = s.network().actQuantLayers();
    ASSERT_EQ(orig.size(), restored.size());
    for (size_t i = 0; i < orig.size(); ++i) {
        EXPECT_TRUE(restored[i]->staticScale());
        EXPECT_EQ(restored[i]->calibrationMax(),
                  orig[i]->calibrationMax());
    }
    for (int bits : net.precisionSet().bits()) {
        Tensor q_ref = engine.forwardQuantizedAt(bits, x);
        s.switchPrecision(bits);
        expectBitIdentical(q_ref, s.forwardQuantized(x), bits);
    }
    std::remove(path.c_str());
}

/** Warm start: restoring the serialized code cache skips the engine
 * rebuild entirely — zero cells quantized at load, zero cache misses
 * on the first switch-and-forward. */
TEST(Checkpoint, EngineCacheWarmStartSkipsRebuild)
{
    Network net = makeResidualNet(45);
    Tensor x = makeInput(9);
    RpsEngine engine(net);
    std::string path = tmpPath("warmstart");
    checkpoint::save(path, net, &engine);

    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::read(path);
    ASSERT_TRUE(ckpt.hasEngineCache());
    Network net2 = ckpt.instantiate();
    std::unique_ptr<RpsEngine> engine2 = ckpt.restoreEngine(net2);
    ASSERT_NE(engine2, nullptr);
    EXPECT_EQ(engine2->columnRebuilds(), 0u);

    engine2->resetCacheStats();
    for (int bits : net.precisionSet().bits()) {
        Tensor y_ref = engine.forwardAt(bits, x);
        expectBitIdentical(y_ref, engine2->forwardAt(bits, x), bits);
        Tensor q_ref = engine.forwardQuantizedAt(bits, x);
        expectBitIdentical(q_ref, engine2->forwardQuantizedAt(bits, x),
                           bits);
        // The restored codes are the saved codes, bit for bit.
        for (size_t l = 0; l < engine.numQuantLayers(); ++l) {
            EXPECT_EQ(engine2->codesFor(l, bits).codes,
                      engine.codesFor(l, bits).codes);
            EXPECT_EQ(engine2->codesFor(l, bits).scale,
                      engine.codesFor(l, bits).scale);
        }
    }
    // Every lookup above hit the imported cells: nothing was
    // re-quantized, nothing missed.
    EXPECT_EQ(engine2->columnRebuilds(), 0u);
    EXPECT_EQ(engine2->cacheMisses(), 0u);
    EXPECT_GT(engine2->cacheHits(), 0u);

    // Session::fromCheckpoint takes the same warm-start path.
    Session s = Session::fromCheckpoint(path);
    s.engine().resetCacheStats();
    s.switchPrecision(net.precisionSet().bits().front());
    s.forward(x);
    EXPECT_EQ(s.engine().columnRebuilds(), 0u);
    EXPECT_EQ(s.engine().cacheMisses(), 0u);
    std::remove(path.c_str());
}

/** Pack persistence (opt-in SaveOptions::includeEnginePacks): the
 * tile-packed kernel weights ride the artifact, so a warm start
 * serves every cached precision with zero column rebuilds AND zero
 * pack builds — and the restored pack bytes equal a freshly built
 * engine's, tile for tile. */
TEST(Checkpoint, EnginePacksPersistBehindTheFlag)
{
    Network net = makeResidualNet(48);
    Tensor x = makeInput(11);
    RpsEngine engine(net);
    for (int bits : net.precisionSet().bits())
        for (size_t l = 0; l < engine.numQuantLayers(); ++l)
            engine.packedFor(l, bits); // build the source packs

    std::string path = tmpPath("packs");
    checkpoint::SaveOptions opts;
    opts.includeEnginePacks = true;
    checkpoint::save(path, net, &engine, opts);

    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::read(path);
    ASSERT_TRUE(ckpt.hasEngineCache());
    ASSERT_TRUE(ckpt.hasEnginePacks());

    Session s = Session::fromCheckpoint(path);
    for (int bits : net.precisionSet().bits()) {
        Tensor q_ref = engine.forwardQuantizedAt(bits, x);
        s.switchPrecision(bits);
        expectBitIdentical(q_ref, s.forwardQuantized(x), bits);
    }
    // Pack bytes equal the source engine's (packedFor on the restored
    // engine must hit the imported pack, not rebuild one).
    for (int bits : net.precisionSet().bits())
        for (size_t l = 0; l < engine.numQuantLayers(); ++l) {
            const gemm::PackedIntWeights &a = engine.packedFor(l, bits);
            const gemm::PackedIntWeights &b =
                s.engine().packedFor(l, bits);
            EXPECT_EQ(a.m, b.m);
            EXPECT_EQ(a.k, b.k);
            EXPECT_EQ(a.bits, b.bits);
            EXPECT_EQ(a.p8, b.p8);
            EXPECT_EQ(a.p16, b.p16);
            EXPECT_EQ(a.rowSum, b.rowSum);
        }
    EXPECT_EQ(s.engine().columnRebuilds(), 0u);
    EXPECT_EQ(s.engine().packBuilds(), 0u);

    // The default save stays pack-free: the flag is opt-in, and
    // artifacts predating it parse unchanged.
    std::string plain = tmpPath("packs_plain");
    checkpoint::save(plain, net, &engine);
    EXPECT_FALSE(
        checkpoint::Checkpoint::read(plain).hasEnginePacks());

    // Session::save(path, opts) carries the packs through its own
    // round trip as well.
    std::string again = tmpPath("packs_again");
    s.save(again, opts);
    Session s2 = Session::fromCheckpoint(again);
    for (int bits : net.precisionSet().bits()) {
        Tensor q_ref = engine.forwardQuantizedAt(bits, x);
        s2.switchPrecision(bits);
        expectBitIdentical(q_ref, s2.forwardQuantized(x), bits);
    }
    EXPECT_EQ(s2.engine().columnRebuilds(), 0u);
    EXPECT_EQ(s2.engine().packBuilds(), 0u);
    std::remove(path.c_str());
    std::remove(plain.c_str());
    std::remove(again.c_str());
}

/** A cache-less artifact still loads; the session builds its engine
 * the ordinary (quantizing) way. */
TEST(Checkpoint, LoadsWithoutEngineCache)
{
    Network net = makeTinyNet(46);
    Tensor x = makeInput(10);
    RpsEngine engine(net);
    std::string path = tmpPath("nocache");
    checkpoint::save(path, net, /*engine=*/nullptr);

    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::read(path);
    EXPECT_FALSE(ckpt.hasEngineCache());
    Session s = Session::fromCheckpoint(path);
    EXPECT_GT(s.engine().columnRebuilds(), 0u);
    for (int bits : net.precisionSet().bits()) {
        Tensor y_ref = engine.forwardAt(bits, x);
        s.switchPrecision(bits);
        expectBitIdentical(y_ref, s.forward(x), bits);
    }
    std::remove(path.c_str());
}

/** Truncated, corrupted, wrong-version, and non-checkpoint inputs
 * all fail with CheckpointError — never a crash, never a silently
 * wrong model. */
TEST(Checkpoint, MalformedArtifactsThrow)
{
    Network net = makeTinyNet(47);
    RpsEngine engine(net);
    std::string path = tmpPath("malformed");
    checkpoint::save(path, net, &engine);
    std::vector<uint8_t> good = io::readFile(path);
    ASSERT_GT(good.size(), 64u);

    // Missing file.
    EXPECT_THROW(checkpoint::Checkpoint::read(tmpPath("nonexistent")),
                 io::CheckpointError);

    // Truncation at several depths: inside the header, inside the
    // payload, and just short of the checksum.
    for (size_t keep :
         {size_t(4), size_t(20), good.size() / 2, good.size() - 4}) {
        std::vector<uint8_t> cut(good.begin(),
                                 good.begin() +
                                     static_cast<ptrdiff_t>(keep));
        io::writeFile(path, cut);
        EXPECT_THROW(checkpoint::Checkpoint::read(path),
                     io::CheckpointError)
            << "kept " << keep << " bytes";
    }

    // Bit corruption in the payload: the checksum catches it.
    {
        std::vector<uint8_t> bad = good;
        bad[bad.size() / 2] ^= 0xff;
        io::writeFile(path, bad);
        EXPECT_THROW(checkpoint::Checkpoint::read(path),
                     io::CheckpointError);
    }

    // Header corruption: a flipped flags bit must read as corruption
    // (the checksum covers the header), not silently drop the engine
    // cache section.
    {
        std::vector<uint8_t> bad = good;
        bad[12] ^= 0x01; // flags u32 follows the magic + version
        io::writeFile(path, bad);
        EXPECT_THROW(checkpoint::Checkpoint::read(path),
                     io::CheckpointError);
    }

    // Future format version: refused with a version message, not
    // misparsed.
    {
        std::vector<uint8_t> bad = good;
        bad[8] = 99; // version u32 follows the 8-byte magic
        io::writeFile(path, bad);
        try {
            checkpoint::Checkpoint::read(path);
            FAIL() << "version mismatch not detected";
        } catch (const io::CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos);
        }
    }

    // Not a checkpoint at all.
    {
        std::vector<uint8_t> junk(256, 0x5a);
        io::writeFile(path, junk);
        EXPECT_THROW(checkpoint::Checkpoint::read(path),
                     io::CheckpointError);
    }
    std::remove(path.c_str());
}

/** A checksum-valid but internally inconsistent artifact (vector
 * blobs of the wrong length) must fail checkState — the guard
 * instantiate() runs after restoring blobs, so the load throws
 * instead of reading out of bounds at inference. */
TEST(Checkpoint, InconsistentVectorStateIsRejected)
{
    Network net = makeResidualNet(50);
    EXPECT_EQ(net.checkState(), "");

    // Shrink one SBN trained-flag vector and one ActQuant calibration
    // bank through the restore pointers — exactly what loading such
    // an artifact would do before the guard.
    StateDict dict;
    net.collectState(dict);
    for (StateEntry &e : dict) {
        if (e.flags && e.name.find(".trained") != std::string::npos) {
            e.flags->resize(1);
            break;
        }
    }
    EXPECT_NE(net.checkState(), "");

    Network net2 = makeTinyNet(51);
    Calibrator cal(net2);
    Tensor x = makeInput(14);
    cal.calibrate({x});
    StateDict dict2;
    net2.collectState(dict2);
    for (StateEntry &e : dict2) {
        if (e.floats && e.name.find(".calib_max") != std::string::npos) {
            e.floats->resize(1);
            break;
        }
    }
    EXPECT_NE(net2.checkState(), "");
}

/** The Session facade end to end: fromNetwork wiring, batched
 * serving with a deterministic precision trace, and results matching
 * a direct engine forward at the traced precision. */
TEST(Session, ServeMatchesEngineForward)
{
    Network net = makeTinyNet(48);
    Tensor calx = makeInput(11, 8);
    {
        Calibrator cal(net);
        cal.calibrate({calx});
    }

    SessionConfig cfg;
    cfg.serving.maxBatch = 4; // one request per serving batch
    cfg.serving.microBatch = 2;
    cfg.serving.seed = 77;
    Session s = Session::fromNetwork(std::move(net), cfg);

    Rng req_rng(12);
    std::vector<Tensor> requests;
    for (int i = 0; i < 5; ++i)
        requests.push_back(
            Tensor::uniform({4, 3, 8, 8}, req_rng, 0.0f, 1.0f));
    std::vector<Tensor> results = s.serve(requests);
    ASSERT_EQ(results.size(), requests.size());

    const std::vector<int> &trace = s.precisionTrace();
    ASSERT_EQ(trace.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        Tensor y_ref =
            s.engine().forwardQuantizedAt(trace[i], requests[i]);
        // serve() runs plan replicas; the direct forward runs the
        // legacy loop — bit-identical with calibrated static scales.
        ASSERT_EQ(y_ref.size(), results[i].size());
        for (size_t j = 0; j < y_ref.size(); ++j)
            ASSERT_EQ(y_ref[j], results[i][j]) << "req " << i;
    }

    serve::ServeStats st = s.stats();
    EXPECT_EQ(st.requests, requests.size());
    EXPECT_EQ(st.rows, 4 * requests.size());
    EXPECT_GT(st.qps, 0.0);

    // A second session with the same seed replays the same trace.
    std::string path = tmpPath("session");
    s.save(path);
    Session s2 = Session::fromCheckpoint(path, cfg);
    std::vector<Tensor> results2 = s2.serve(requests);
    EXPECT_EQ(s2.precisionTrace(), trace);
    for (size_t i = 0; i < results.size(); ++i)
        for (size_t j = 0; j < results[i].size(); ++j)
            ASSERT_EQ(results[i][j], results2[i][j]);
    std::remove(path.c_str());
}

/** A write fault that tears the save mid-stream must surface
 * CheckpointError AND leave the previous artifact untouched: save()
 * writes to <path>.tmp and renames only on success, so the torn
 * bytes never reach the live path. */
TEST(Checkpoint, TornSaveLeavesPreviousArtifactIntact)
{
    Network net = makeTinyNet(60);
    Tensor x = makeInput(15);
    std::string path = tmpPath("torn");
    checkpoint::save(path, net);
    std::vector<uint8_t> before = io::readFile(path);
    Tensor y_ref = Session::fromCheckpoint(path).forward(x);

    io::FaultHooks hooks;
    hooks.onWrite = [](const std::string &, size_t size) {
        return size / 2; // tear every write at half its bytes
    };
    io::setFaultHooks(hooks);
    Network net2 = makeTinyNet(61); // different weights
    EXPECT_THROW(checkpoint::save(path, net2), io::CheckpointError);
    io::clearFaultHooks();

    // The artifact still holds the *previous* model, byte for byte.
    EXPECT_EQ(io::readFile(path), before);
    expectBitIdentical(y_ref, Session::fromCheckpoint(path).forward(x),
                       0);
    std::remove(path.c_str());
}

/** A transiently corrupt read (flaky storage, racing writer) is
 * healed by the retry budget: attempt 1 fails, the retry sees clean
 * bytes, and the loaded session is bit-identical to a clean load. */
TEST(Session, TransientCorruptReadRecoversViaRetry)
{
    Network net = makeTinyNet(62);
    Tensor x = makeInput(16);
    std::string path = tmpPath("transient");
    checkpoint::save(path, net);
    Tensor y_ref = Session::fromCheckpoint(path).forward(x);

    auto fired = std::make_shared<bool>(false);
    io::FaultHooks hooks;
    hooks.onRead = [fired](const std::string &,
                           std::vector<uint8_t> &bytes) {
        if (*fired)
            return; // transient: only the first read is corrupt
        *fired = true;
        bytes[bytes.size() / 2] ^= 0xff;
    };
    io::setFaultHooks(hooks);

    SessionConfig cfg;
    cfg.loadRetries = 1;
    int attempts = 0;
    std::string lastError;
    cfg.onLoadRetry = [&](int attempt, const std::string &error) {
        attempts = attempt;
        lastError = error;
    };
    Session s = Session::fromCheckpoint(path, cfg);
    io::clearFaultHooks();

    EXPECT_TRUE(*fired);
    EXPECT_EQ(attempts, 1);
    EXPECT_FALSE(lastError.empty());
    expectBitIdentical(y_ref, s.forward(x), 0);
    std::remove(path.c_str());
}

/** When the artifact stays malformed through every retry, the
 * exhausted load surfaces io::CheckpointError — a recoverable
 * condition the caller can degrade on, never a crash — after
 * observing exactly loadRetries failed attempts. */
TEST(Session, LoadRetryExhaustionIsRecoverable)
{
    Network net = makeTinyNet(63);
    std::string path = tmpPath("exhaust");
    checkpoint::save(path, net);

    io::FaultHooks hooks;
    hooks.onRead = [](const std::string &,
                      std::vector<uint8_t> &bytes) {
        bytes[bytes.size() / 2] ^= 0xff; // persistent corruption
    };
    io::setFaultHooks(hooks);

    SessionConfig cfg;
    cfg.loadRetries = 2;
    std::vector<int> attempts;
    cfg.onLoadRetry = [&](int attempt, const std::string &) {
        attempts.push_back(attempt);
    };
    EXPECT_THROW(Session::fromCheckpoint(path, cfg),
                 io::CheckpointError);
    io::clearFaultHooks();
    EXPECT_EQ(attempts, (std::vector<int>{1, 2}));

    // The process stays healthy: a clean load still works.
    Tensor x = makeInput(17);
    Session s = Session::fromCheckpoint(path);
    s.forward(x);
    std::remove(path.c_str());
}

/** A rejected precision switch (bits outside the candidate set)
 * throws serve::ServeError and leaves the previously active
 * precision serving bit-identically — the session never lands in a
 * half-switched state. */
TEST(Session, FailedSwitchPrecisionKeepsPriorPrecisionServing)
{
    Network net = makeTinyNet(64);
    Tensor x = makeInput(18);
    {
        // Static scales: forwards are a pure function of the input.
        Calibrator cal(net);
        cal.calibrate({makeInput(19, 8)});
    }
    Session s = Session::attach(net);
    int bits = s.candidates().bits().front();
    s.switchPrecision(bits);
    Tensor y_ref = s.forward(x);

    EXPECT_THROW(s.switchPrecision(7), serve::ServeError);
    EXPECT_THROW(s.switchPrecision(-1), serve::ServeError);

    EXPECT_EQ(s.activePrecision(), bits);
    expectBitIdentical(y_ref, s.forward(x), bits);
}

/** A dead attached session leaves the caller's network computing
 * exactly what it computed before: the session's plans were its own
 * and the network's entry points keep their per-layer loops. */
TEST(Session, DeadAttachedSessionLeavesNetworkOutputsUnchanged)
{
    Network net = makeTinyNet(49);
    Tensor x = makeInput(13);
    net.setPrecision(8);
    Tensor ref_f = net.forward(x, /*train=*/false);
    Tensor ref_q = net.forwardQuantized(x);
    std::vector<int> ref_pred = net.predictQuantized(x);
    {
        Session s = Session::attach(net);
        s.switchPrecision(8);
        s.predict(x);
        s.predictQuantized(x);
    }
    ASSERT_EQ(net.activePrecision(), 8);
    expectBitIdentical(ref_f, net.forward(x, /*train=*/false), 8);
    expectBitIdentical(ref_q, net.forwardQuantized(x), 8);
    EXPECT_EQ(ref_pred, net.predictQuantized(x));
}

/** Deterministic training fixture shared by the momentum round-trip
 * tests: a fixed input batch, fixed labels, and N full-precision SGD
 * steps applied to `net` through `sgd`. */
void
trainSteps(Network &net, Sgd &sgd, int steps)
{
    Tensor x = makeInput(23, 8);
    std::vector<int> labels = {0, 1, 2, 3, 0, 1, 2, 3};
    SoftmaxCrossEntropy loss;
    net.setPrecision(0);
    for (int it = 0; it < steps; ++it) {
        Tensor logits = net.forward(x, true);
        loss.forward(logits, labels);
        net.zeroGrad();
        net.backward(loss.backward());
        sgd.step(net.parameters());
        net.zeroGrad();
    }
}

void
expectParamsBitIdentical(Network &a, Network &b)
{
    auto pa = a.parameters();
    auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size()) << "param " << i;
        for (size_t t = 0; t < pa[i]->value.size(); ++t)
            ASSERT_EQ(pa[i]->value[t], pb[i]->value[t])
                << "param " << i << " elem " << t;
    }
}

/** Satellite (a) acceptance: save mid-run with the optimizer, reload,
 * continue — N further steps match the uninterrupted run bit for bit,
 * because the format now carries the SGD velocity buffers. */
TEST(Checkpoint, OptimizerResumeMatchesUninterruptedRun)
{
    // Uninterrupted reference: K + M steps in one process.
    Network ref = makeTinyNet(77);
    Sgd ref_sgd(0.05f, 0.9f, 5e-4f);
    trainSteps(ref, ref_sgd, 4);

    // Interrupted twin: K steps, save with the optimizer, reload into
    // a fresh network + fresh Sgd, then the remaining M steps.
    Network net = makeTinyNet(77);
    Sgd sgd(0.05f, 0.9f, 5e-4f);
    trainSteps(net, sgd, 2);

    std::string path = tmpPath("momentum");
    checkpoint::SaveOptions opts;
    opts.optimizer = &sgd;
    checkpoint::save(path, net, nullptr, opts);

    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::read(path);
    ASSERT_TRUE(ckpt.hasOptimizerState());
    Network resumed = ckpt.instantiate();
    Sgd sgd2(0.05f, 0.9f, 5e-4f);
    ckpt.restoreOptimizer(sgd2, resumed);

    trainSteps(resumed, sgd2, 2);
    trainSteps(net, sgd, 2); // in-process continuation, same result

    expectParamsBitIdentical(net, ref);
    expectParamsBitIdentical(resumed, ref);
    std::remove(path.c_str());
}

/** The control: dropping the velocity (fresh Sgd, no restore) after
 * the same interruption diverges from the uninterrupted run — the
 * momentum section is load-bearing, not decorative. */
TEST(Checkpoint, ResumeWithoutOptimizerStateDiverges)
{
    Network ref = makeTinyNet(78);
    Sgd ref_sgd(0.05f, 0.9f, 0.0f);
    trainSteps(ref, ref_sgd, 4);

    Network net = makeTinyNet(78);
    Sgd sgd(0.05f, 0.9f, 0.0f);
    trainSteps(net, sgd, 2);

    std::string path = tmpPath("momentum_ctrl");
    checkpoint::save(path, net); // no optimizer in the artifact

    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::read(path);
    EXPECT_FALSE(ckpt.hasOptimizerState());
    Network resumed = ckpt.instantiate();
    Sgd cold(0.05f, 0.9f, 0.0f); // velocity starts at zero
    EXPECT_THROW(ckpt.restoreOptimizer(cold, resumed),
                 io::CheckpointError);
    trainSteps(resumed, cold, 2);

    auto pa = resumed.parameters();
    auto pb = ref.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    bool differs = false;
    for (size_t i = 0; i < pa.size() && !differs; ++i)
        for (size_t t = 0; t < pa[i]->value.size(); ++t)
            if (pa[i]->value[t] != pb[i]->value[t]) {
                differs = true;
                break;
            }
    EXPECT_TRUE(differs);
    std::remove(path.c_str());
}

} // namespace
} // namespace twoinone
