/**
 * @file
 * Tests for the compiled execution plans and batched RPS serving
 * through Session: float plans must be bit-identical to the eval
 * layer loop and fused quantized plans to the network's unfused
 * reference plan (Network::forwardQuantized) at every candidate
 * precision (cached, uncached, calibrated, full precision), and the
 * traced conv accumulators to plain gemm::igemmTransB; plans allocate
 * zero tensors after
 * compile, reuse the arena safely across batch sizes, and Session
 * serving must sample precisions deterministically from its
 * seed with outputs independent of the thread count (CMake re-runs
 * this binary under TWOINONE_THREADS=1/4 and TWOINONE_BACKEND=naive).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/thread_pool.hh"
#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv2d.hh"
#include "nn/linear.hh"
#include "nn/model_zoo.hh"
#include "nn/pooling.hh"
#include "nn/residual.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/runtime.hh"
#include "serve/session.hh"
#include "tensor/gemm.hh"

namespace twoinone {
namespace {

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

void
expectBitIdentical(const Tensor &a, const Tensor &b, int bits)
{
    ASSERT_EQ(a.shape(), b.shape()) << "bits=" << bits;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "bits=" << bits << " i=" << i;
}

/** Float-mode plans reproduce the eval layer loop bit-for-bit at
 * every candidate (cached and uncached) and at full precision. */
TEST(ExecutionPlan, FloatBitIdenticalToEvalLoopAllPrecisions)
{
    Network net = makeResidualNet(42);
    Tensor x = makeInput(7);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Float, x.shape());

    for (int bits : net.precisionSet().bits()) {
        // Cached path (engine-installed weights).
        engine.setPrecision(bits);
        Tensor y_ref = net.forward(x, /*train=*/false);
        expectBitIdentical(y_ref, plan->run(x), bits);

        // Uncached path (per-forward re-quantization).
        engine.detach();
        net.setPrecision(bits);
        Tensor y_unc = net.forward(x, /*train=*/false);
        expectBitIdentical(y_unc, plan->run(x), bits);
    }
    engine.setPrecision(0);
    Tensor y_fp = net.forward(x, /*train=*/false);
    expectBitIdentical(y_fp, plan->run(x), 0);
}

/** Fused quantized plans reproduce the unfused reference plan
 * (Network::forwardQuantized) bit-for-bit — dynamic activation ranges and calibrated static
 * scales, every candidate, plus the full-precision passthrough. */
TEST(ExecutionPlan, FusedBitIdenticalToUnfusedAllPrecisions)
{
    Network net = makeResidualNet(43);
    Tensor x = makeInput(8);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());

    // Dynamic ranges first.
    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor y_ref = net.forwardQuantized(x);
        expectBitIdentical(y_ref, plan->run(x), bits);
    }

    // Calibrated static scales.
    Calibrator cal(net);
    cal.calibrate({x});
    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor y_ref = net.forwardQuantized(x);
        expectBitIdentical(y_ref, plan->run(x), bits);
    }

    engine.setPrecision(0);
    Tensor y_fp = net.forwardQuantized(x);
    expectBitIdentical(y_fp, plan->run(x), 0);
}

/** Same property on the Linear-headed tiny net (covers Linear and
 * GlobalAvgPool emitters). */
TEST(ExecutionPlan, QuantizedBitIdenticalTinyNet)
{
    Network net = makeTinyNet(44);
    Tensor x = makeInput(9);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());

    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor y_ref = net.forwardQuantized(x);
        expectBitIdentical(y_ref, plan->run(x), bits);
    }
}

/** Counts the steps of @p plan whose label starts with @p label. */
int
countSteps(const serve::ExecutionPlan &plan, const std::string &label)
{
    std::istringstream lines(plan.describe());
    std::string line;
    int n = 0;
    while (std::getline(lines, line))
        n += line.rfind("  " + label, 0) == 0 ? 1 : 0;
    return n;
}

/** Producer fusion is the only difference between a fused and an
 * unfused quantized plan: the unfused one runs every SBN, ReLU and
 * ActQuant as its own step (each ActQuant feeding convs writing their
 * channel-last operand), the fused one merges SBN+ReLU(+ActQuant),
 * and both produce the same logits at every candidate. */
TEST(ExecutionPlan, UnfusedPlanRunsEveryLayerAsItsOwnStep)
{
    Network net = makeResidualNet(53);
    Tensor x = makeInput(17);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> fused = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());
    std::unique_ptr<serve::ExecutionPlan> unfused =
        net.compile(net.precisionSet(), serve::PlanMode::Quantized,
                    x.shape(), /*warm_all=*/false, /*fuse=*/false);

    EXPECT_EQ(countSteps(*unfused, "sbn+relu"), 0);
    EXPECT_GT(countSteps(*unfused, "actquant[channel-last]"), 1);
    EXPECT_EQ(countSteps(*unfused, "sbn"), countSteps(*unfused, "relu"));
    EXPECT_GT(countSteps(*fused, "sbn+relu+actquant[channel-last]"), 0);
    EXPECT_GT(unfused->numSteps(), fused->numSteps());

    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor y_unfused = unfused->run(x);
        expectBitIdentical(y_unfused, fused->run(x), bits);
        expectBitIdentical(y_unfused, net.forwardQuantized(x), bits);
    }
}

/** The arena contract: once compiled (and with the engine cache
 * installed), plan forwards perform zero tensor allocations. */
TEST(ExecutionPlan, ZeroTensorAllocationsAfterCompile)
{
    Network net = makeResidualNet(45);
    Tensor x = makeInput(10);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> qplan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());
    std::unique_ptr<serve::ExecutionPlan> fplan = net.compile(
        net.precisionSet(), serve::PlanMode::Float, x.shape());

    // One pass over every precision so engine-side tile packs and
    // plan buffers are at their high-water marks.
    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        qplan->run(x);
        fplan->run(x);
    }

    uint64_t before = Tensor::allocationCount();
    for (int rep = 0; rep < 3; ++rep) {
        for (int bits : net.precisionSet().bits()) {
            engine.setPrecision(bits);
            qplan->run(x);
            fplan->run(x);
        }
    }
    EXPECT_EQ(Tensor::allocationCount(), before)
        << "plan forwards allocated tensors after warm-up";
}

/** Arena reuse across batch sizes: smaller batches run correctly in
 * the max-sized arena, and returning to the larger batch is still
 * allocation-free and bit-identical. */
TEST(ExecutionPlan, ArenaReuseAcrossBatchSizes)
{
    Network net = makeTinyNet(46);
    Tensor x4 = makeInput(11, 4);
    Tensor x2 = x4.slice0(0, 2);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x4.shape());

    engine.setPrecision(8);
    Tensor ref4 = net.forwardQuantized(x4);
    Tensor ref2 = net.forwardQuantized(x2);

    expectBitIdentical(ref4, plan->run(x4), 8);
    expectBitIdentical(ref2, plan->run(x2), 8);
    uint64_t before = Tensor::allocationCount();
    expectBitIdentical(ref4, plan->run(x4), 8);
    expectBitIdentical(ref2, plan->run(x2), 8);
    EXPECT_EQ(Tensor::allocationCount(), before);

    // runRows serves row windows of a larger batch bit-identically.
    expectBitIdentical(ref2, plan->runRows(x4, 0, 2), 8);
}

/** Serial and pooled executions of the same plan agree bit-for-bit
 * (the in-process arm of the TWOINONE_THREADS matrix). */
TEST(ExecutionPlan, DeterministicAcrossThreadCounts)
{
    Network net = makeResidualNet(47);
    Tensor x = makeInput(12);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());

    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor serial;
        {
            ThreadPool::ScopedSerial guard;
            serial = plan->run(x);
        }
        expectBitIdentical(serial, plan->run(x), bits);
    }
}

/** Session's plan-run entry points are bit-identical to the
 * network's eval loop and unfused reference plan at every candidate:
 * on the first batch
 * (compiles), a larger batch (recompiles), a smaller batch (reuses the
 * plan) and a different trailing shape (recompiles). */
TEST(Session, EntryPointsBitIdenticalToNetworkReference)
{
    Network net = makeTinyNet(48);
    Session s = Session::attach(net);
    Rng rng(16);
    std::vector<Tensor> inputs = {
        makeInput(13), makeInput(14, 8), makeInput(15, 2),
        Tensor::uniform({4, 3, 12, 12}, rng, 0.0f, 1.0f)};

    for (const Tensor &x : inputs) {
        for (int bits : s.candidates().bits()) {
            s.switchPrecision(bits);
            EXPECT_EQ(s.predict(x), net.predict(x)) << "bits=" << bits;
            EXPECT_EQ(s.predictQuantized(x), net.predictQuantized(x))
                << "bits=" << bits;
            expectBitIdentical(net.forwardQuantized(x),
                               s.forwardQuantized(x), bits);
        }
    }
}

/** Plain gemm::igemmTransB over one traced conv's NCHW codes — an
 * (ci, ky, kx)-ordered im2col per image against the unpermuted weight
 * codes — must reproduce its traced accumulators. */
void
expectTracedConvMatchesIgemm(Conv2d *conv, int bits)
{
    const QuantTensor &wq = conv->tracedWeightCodes();
    const QuantTensor &acts = conv->tracedActCodes();
    ASSERT_EQ(acts.shape.size(), 4u) << "bits=" << bits;
    int n = acts.shape[0], c = acts.shape[1], h = acts.shape[2],
        w = acts.shape[3];
    int k = conv->kernel(), m = conv->outChannels();
    int s = conv->stride(), pad = conv->padding();
    int oh = conv->outSize(h), ow = conv->outSize(w);
    int patch = c * k * k, ohw = oh * ow;
    const std::vector<int64_t> &acc = conv->tracedAccumulators();
    ASSERT_EQ(acc.size(), static_cast<size_t>(n) * m * ohw);

    std::vector<int16_t> w16(wq.codes.begin(), wq.codes.end());
    std::vector<uint16_t> cols(static_cast<size_t>(ohw) * patch);
    std::vector<int64_t> ref(static_cast<size_t>(m) * ohw);
    for (int ni = 0; ni < n; ++ni) {
        const int32_t *img =
            acts.codes.data() + static_cast<size_t>(ni) * c * h * w;
        uint16_t *col = cols.data();
        for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox)
                for (int ci = 0; ci < c; ++ci)
                    for (int ky = 0; ky < k; ++ky)
                        for (int kx = 0; kx < k; ++kx) {
                            int iy = oy * s - pad + ky;
                            int ix = ox * s - pad + kx;
                            bool in = iy >= 0 && iy < h && ix >= 0 &&
                                      ix < w;
                            *col++ = static_cast<uint16_t>(
                                in ? img[(ci * h + iy) * w + ix] : 0);
                        }
        gemm::igemmTransB(m, ohw, patch, w16.data(), patch, cols.data(),
                          patch, ref.data(), ohw, wq.bits, acts.bits);
        for (size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ref[i], acc[ni * ref.size() + i])
                << conv->describe() << " bits=" << bits
                << " image=" << ni << " i=" << i;
    }
}

/** Convs of ragged geometry on the channel-last operand path: the
 * stem (C = 3, so the tap-major k-groups of 4 straddle taps), a
 * network-level SBN+ReLU+quantize producer feeding a stride-2 3x3
 * conv, and a block whose stride-2 3x3 conv and 1x1 p0 projection
 * both read one p1-padded producer buffer — over odd H/W at batch 1
 * and 3. At every candidate, with dynamic and calibrated ranges, the
 * fused plan's logits equal the unfused reference plan's, and every
 * conv's traced NCHW codes and accumulators agree between the two
 * plans and with plain gemm::igemmTransB. */
TEST(ExecutionPlan, RaggedConvGeometriesMatchReferenceAndIgemm)
{
    Rng rng(52);
    Network net(PrecisionSet::rps4to16());
    int banks = net.bnBanks();
    net.add(std::make_unique<Conv2d>(3, 8, 3, 1, 1, false, rng));
    net.add(std::make_unique<SwitchableBatchNorm2d>(8, banks));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<ActQuant>());
    net.add(std::make_unique<Conv2d>(8, 8, 3, 2, 1, false, rng));
    net.add(std::make_unique<PreActBlock>(8, 16, 2, banks, rng));
    net.add(std::make_unique<SwitchableBatchNorm2d>(16, banks));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<ActQuant>());
    net.add(std::make_unique<GlobalAvgPool>());
    net.add(std::make_unique<Linear>(16, 10, true, rng));
    std::vector<WeightQuantizedLayer *> layers = net.weightQuantizedLayers();
    std::vector<Conv2d *> convs;
    for (WeightQuantizedLayer *l : layers)
        if (auto *conv = dynamic_cast<Conv2d *>(l))
            convs.push_back(conv);
    ASSERT_EQ(convs.size(), 5u);

    for (int batch : {1, 3}) {
        Rng xr(60 + batch);
        Tensor x = Tensor::uniform({batch, 3, 13, 9}, xr, 0.0f, 1.0f);
        RpsEngine engine(net);
        std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
            net.precisionSet(), serve::PlanMode::Quantized, x.shape());
        for (bool calibrated : {false, true}) {
            if (calibrated) {
                Calibrator cal(net);
                cal.calibrate({x});
            }
            for (int bits : net.precisionSet().bits()) {
                SCOPED_TRACE("batch=" + std::to_string(batch) +
                             (calibrated ? " static" : " dynamic"));
                for (WeightQuantizedLayer *l : layers) {
                    l->setQuantTrace(false);
                    l->setQuantTrace(true);
                }
                engine.setPrecision(bits);
                Tensor y_plan = plan->run(x);
                std::vector<std::vector<int64_t>> plan_acc;
                std::vector<std::vector<int32_t>> plan_codes;
                for (Conv2d *conv : convs) {
                    expectTracedConvMatchesIgemm(conv, bits);
                    plan_acc.push_back(conv->tracedAccumulators());
                    plan_codes.push_back(conv->tracedActCodes().codes);
                }

                Tensor y_ref = net.forwardQuantized(x);
                expectBitIdentical(y_ref, y_plan, bits);
                for (size_t i = 0; i < convs.size(); ++i) {
                    expectTracedConvMatchesIgemm(convs[i], bits);
                    EXPECT_EQ(plan_codes[i],
                              convs[i]->tracedActCodes().codes)
                        << convs[i]->describe() << " bits=" << bits;
                    EXPECT_EQ(plan_acc[i], convs[i]->tracedAccumulators())
                        << convs[i]->describe() << " bits=" << bits;
                }
            }
        }
        for (WeightQuantizedLayer *l : layers)
            l->setQuantTrace(false);
    }
}

/** A session over a caller-owned net and shared engine, serving
 * [N, 3, 8, 8] requests under @p serving. */
Session
servingSession(Network &net, RpsEngine &engine,
               const serve::ServeConfig &serving)
{
    SessionConfig sc;
    sc.serving = serving;
    sc.inputShape = {3, 8, 8};
    return Session::attach(net, engine, sc);
}

/** Precision sampling in Session serving is a pure function of the
 * seed, and the served logits are bit-identical run to run — also
 * when the drain runs serially (drain() computes on the calling
 * thread, so ScopedSerial reaches it). */
TEST(SessionServing, DeterministicPrecisionSampling)
{
    Network net = makeTinyNet(49);
    RpsEngine engine(net);
    serve::ServeConfig cfg;
    cfg.maxBatch = 8;
    cfg.microBatch = 4;
    cfg.seed = 1234;

    auto run_once = [&](bool serial) {
        Session srv = servingSession(net, engine, cfg);
        Rng req_rng(5);
        for (int i = 0; i < 6; ++i)
            srv.submit(Tensor::uniform({4, 3, 8, 8}, req_rng, 0.0f,
                                       1.0f));
        if (serial) {
            ThreadPool::ScopedSerial guard;
            srv.drain();
        } else {
            srv.drain();
        }
        std::pair<std::vector<int>, std::vector<Tensor>> out;
        out.first = srv.precisionTrace();
        for (size_t i = 0; i < 6; ++i)
            out.second.push_back(srv.result(i));
        return out;
    };

    auto a = run_once(false);
    auto b = run_once(false);
    auto c = run_once(true); // serial drain: same results, same trace

    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.first, c.first);
    ASSERT_FALSE(a.first.empty());
    for (int bits : a.first)
        EXPECT_TRUE(engine.set().contains(bits));
    for (size_t i = 0; i < a.second.size(); ++i) {
        expectBitIdentical(a.second[i], b.second[i], a.first[0]);
        expectBitIdentical(a.second[i], c.second[i], a.first[0]);
    }
}

/** Served logits equal a direct engine forward at the precision the
 * session sampled for that batch. Calibrated static scales make the
 * result independent of the micro-batch sharding (dynamic ranges are
 * per-shard by construction — see serve/runtime.hh). */
TEST(SessionServing, ResultsMatchEngineForward)
{
    Network net = makeTinyNet(50);
    {
        Rng cal_rng(60);
        Calibrator cal(net);
        cal.calibrate(
            {Tensor::uniform({8, 3, 8, 8}, cal_rng, 0.0f, 1.0f)});
    }
    RpsEngine engine(net);
    serve::ServeConfig cfg;
    cfg.maxBatch = 4; // one request per serving batch
    cfg.microBatch = 2;
    cfg.seed = 99;
    Session srv = servingSession(net, engine, cfg);

    Rng req_rng(6);
    std::vector<Tensor> xs;
    for (int i = 0; i < 5; ++i) {
        xs.push_back(Tensor::uniform({4, 3, 8, 8}, req_rng, 0.0f, 1.0f));
        srv.submit(xs.back());
    }
    srv.drain();

    const std::vector<int> &trace = srv.precisionTrace();
    ASSERT_EQ(trace.size(), xs.size()); // maxBatch == request rows
    for (size_t i = 0; i < xs.size(); ++i) {
        Tensor y_ref = engine.forwardQuantizedAt(trace[i], xs[i]);
        expectBitIdentical(y_ref, srv.result(i), trace[i]);
    }

    serve::ServeStats st = srv.stats();
    EXPECT_EQ(st.requests, xs.size());
    EXPECT_EQ(st.rows, 4 * xs.size());
    EXPECT_EQ(st.batches, xs.size());
    EXPECT_GT(st.qps, 0.0);
    EXPECT_LE(st.p50Us, st.p99Us);

    // Long-lived loops release served requests; later submissions
    // keep working and stats keep accumulating.
    srv.clearServed();
    size_t id = srv.submit(xs[0]);
    srv.drain();
    Tensor y_ref = engine.forwardQuantizedAt(srv.precisionTrace().back(),
                                             xs[0]);
    expectBitIdentical(y_ref, srv.result(id),
                       srv.precisionTrace().back());
    EXPECT_EQ(srv.stats().requests, xs.size() + 1);
}

/** Malformed submissions — wrong rank, wrong image shape, empty,
 * oversized — are rejected with ServeError, counted in
 * ServeStats::rejected, and leave the session serving healthy
 * traffic bit-identically to an undisturbed run. */
TEST(SessionServing, MalformedSubmissionsRejectedWithoutDisruption)
{
    Network net = makeTinyNet(51);
    RpsEngine engine(net);
    serve::ServeConfig cfg;
    cfg.maxBatch = 8;
    cfg.microBatch = 4;
    cfg.seed = 321;

    Rng req_rng(7);
    std::vector<Tensor> good;
    for (int i = 0; i < 4; ++i)
        good.push_back(Tensor::uniform({4, 3, 8, 8}, req_rng, 0.0f,
                                       1.0f));

    // Reference: the same healthy traffic with no garbage mixed in.
    Session ref = servingSession(net, engine, cfg);
    for (const Tensor &x : good)
        ref.submit(x);
    ref.drain();

    Session srv = servingSession(net, engine, cfg);
    Rng junk_rng(8);
    std::vector<size_t> ids;
    ids.push_back(srv.submit(good[0]));
    // Wrong rank: 2-d tensor where [N, C, H, W] is expected.
    EXPECT_THROW(srv.submit(Tensor::uniform({4, 9}, junk_rng, 0.0f,
                                            1.0f)),
                 serve::ServeError);
    ids.push_back(srv.submit(good[1]));
    // Wrong image shape: trailing dims disagree with the session's.
    EXPECT_THROW(srv.submit(Tensor::uniform({4, 3, 8, 9}, junk_rng,
                                            0.0f, 1.0f)),
                 serve::ServeError);
    // Oversized: more rows than the serving-batch capacity.
    EXPECT_THROW(srv.submit(Tensor::uniform({cfg.maxBatch + 1, 3, 8, 8},
                                            junk_rng, 0.0f, 1.0f)),
                 serve::ServeError);
    ids.push_back(srv.submit(good[2]));
    ids.push_back(srv.submit(good[3]));
    srv.drain();

    // The rejection messages name the offending dimension.
    try {
        srv.submit(Tensor::uniform({cfg.maxBatch + 1, 3, 8, 8},
                                   junk_rng, 0.0f, 1.0f));
        FAIL() << "oversized request accepted";
    } catch (const serve::ServeError &e) {
        EXPECT_NE(std::string(e.what()).find("batch"),
                  std::string::npos);
    }

    serve::ServeStats st = srv.stats();
    EXPECT_EQ(st.rejected, 4u);
    EXPECT_EQ(st.requests, good.size());
    EXPECT_EQ(st.rows, 4 * good.size());

    // Healthy traffic was untouched by the rejections: same sampled
    // precisions, bit-identical results as the undisturbed run.
    EXPECT_EQ(srv.precisionTrace(), ref.precisionTrace());
    for (size_t i = 0; i < good.size(); ++i)
        expectBitIdentical(ref.result(i), srv.result(ids[i]),
                           srv.precisionTrace().front());
    EXPECT_EQ(ref.stats().rejected, 0u);
}

/** Reading a result slot after clearServed() released it is a
 * use-after-free in waiting: the session panics (TWOINONE_ASSERT →
 * abort) instead of returning a dangling reference. */
TEST(SessionServingDeathTest, ResultAfterClearServedPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Network net = makeTinyNet(52);
    RpsEngine engine(net);
    serve::ServeConfig cfg;
    cfg.maxBatch = 8;
    cfg.microBatch = 4;
    cfg.seed = 77;
    Session srv = servingSession(net, engine, cfg);

    Rng req_rng(9);
    size_t id =
        srv.submit(Tensor::uniform({4, 3, 8, 8}, req_rng, 0.0f, 1.0f));
    srv.drain();
    (void)srv.result(id); // valid while served and not yet released
    srv.clearServed();
    EXPECT_DEATH((void)srv.result(id),
                 "released by clearServed");
}

} // namespace
} // namespace twoinone
