/**
 * @file
 * Tests for the compiled execution plans and the batched RPS serving
 * runtime (ISSUE 4): plan forwards must be bit-identical to the
 * legacy per-layer loops at every candidate precision (cached,
 * uncached, calibrated, full precision), allocate zero tensors after
 * compile, reuse the arena safely across batch sizes, and the
 * serving runtime must sample precisions deterministically from its
 * seed with outputs independent of the thread count (CMake re-runs
 * this binary under TWOINONE_THREADS=1/4 and TWOINONE_BACKEND=naive).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/thread_pool.hh"
#include "nn/model_zoo.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/runtime.hh"
#include "serve/session.hh"

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

/** Float-mode plans reproduce the legacy eval forward bit-for-bit at
 * every candidate (cached and uncached) and at full precision. */
TEST(ExecutionPlan, FloatBitIdenticalToLegacyAllPrecisions)
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

/** Quantized-mode plans reproduce the legacy integer forward
 * bit-for-bit — dynamic activation ranges and calibrated static
 * scales, every candidate, plus the full-precision passthrough. */
TEST(ExecutionPlan, QuantizedBitIdenticalToLegacyAllPrecisions)
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

    // One pass over every precision so engine-side float views and
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
 * network's per-layer loops at every candidate: on the first batch
 * (compiles), a larger batch (recompiles), a smaller batch (reuses the
 * plan) and a different trailing shape (recompiles). */
TEST(Session, EntryPointsBitIdenticalToNetworkLoops)
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

/** im2col gather tables are geometry-pure and come from a shared
 * registry: plan replicas of the same geometry hold pointers to the
 * SAME table instead of private copies (PR 4 follow-up — shrinks the
 * per-worker serving arena). */
TEST(ExecutionPlan, GatherTablesSharedAcrossReplicas)
{
    Network net = makeResidualNet(52);
    Tensor x = makeInput(15);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> a = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());
    std::unique_ptr<serve::ExecutionPlan> b = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());

    // Run both replicas at a quantized precision so every conv step
    // has touched its gather table.
    engine.setPrecision(8);
    a->run(x);
    b->run(x);

    auto tables = [](const serve::ExecutionPlan &p) {
        std::vector<const void *> out;
        for (size_t i = 0; i < p.numScratch(); ++i) {
            const IntGemmScratch &ig =
                p.scratchAt(static_cast<int>(i)).ig;
            if (ig.gather)
                out.push_back(ig.gather.get());
        }
        return out;
    };
    std::vector<const void *> ta = tables(*a);
    std::vector<const void *> tb = tables(*b);
    ASSERT_FALSE(ta.empty()) << "no conv step built a gather table";
    ASSERT_EQ(ta.size(), tb.size());
    // Same geometry, same scratch order: replica B's conv steps must
    // point at replica A's tables, not private copies.
    EXPECT_EQ(ta, tb);
}

/** Precision sampling in the serving runtime is a pure function of
 * the seed, and the served logits are bit-identical run to run. */
TEST(ServingRuntime, DeterministicPrecisionSampling)
{
    Network net = makeTinyNet(49);
    RpsEngine engine(net);
    serve::ServeConfig cfg;
    cfg.maxBatch = 8;
    cfg.microBatch = 4;
    cfg.seed = 1234;

    auto run_once = [&](bool serial) {
        serve::ServingRuntime srv(net, engine, {3, 8, 8}, cfg);
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
 * runtime sampled for that batch. Calibrated static scales make the
 * result independent of the micro-batch sharding (dynamic ranges are
 * per-shard by construction — see serve/runtime.hh). */
TEST(ServingRuntime, ResultsMatchEngineForward)
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
    serve::ServingRuntime srv(net, engine, {3, 8, 8}, cfg);

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
 * ServeStats::rejected, and leave the runtime serving healthy
 * traffic bit-identically to an undisturbed run. */
TEST(ServingRuntime, MalformedSubmissionsRejectedWithoutDisruption)
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
    serve::ServingRuntime ref(net, engine, {3, 8, 8}, cfg);
    for (const Tensor &x : good)
        ref.submit(x);
    ref.drain();

    serve::ServingRuntime srv(net, engine, {3, 8, 8}, cfg);
    Rng junk_rng(8);
    std::vector<size_t> ids;
    ids.push_back(srv.submit(good[0]));
    // Wrong rank: 2-d tensor where [N, C, H, W] is expected.
    EXPECT_THROW(srv.submit(Tensor::uniform({4, 9}, junk_rng, 0.0f,
                                            1.0f)),
                 serve::ServeError);
    ids.push_back(srv.submit(good[1]));
    // Wrong image shape: trailing dims disagree with the runtime's.
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
 * use-after-free in waiting: the runtime panics (TWOINONE_ASSERT →
 * abort) instead of returning a dangling reference. */
TEST(ServingRuntimeDeathTest, ResultAfterClearServedPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Network net = makeTinyNet(52);
    RpsEngine engine(net);
    serve::ServeConfig cfg;
    cfg.maxBatch = 8;
    cfg.microBatch = 4;
    cfg.seed = 77;
    serve::ServingRuntime srv(net, engine, {3, 8, 8}, cfg);

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
