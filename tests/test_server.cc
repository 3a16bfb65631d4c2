/**
 * @file
 * Tests for the asynchronous multi-tenant serving front-end
 * (serve/server.hh): adaptive micro-batch closing (size vs age vs
 * flush), deadline load shedding before compute, admission control,
 * fair round-robin scheduling across tenants, bit-identity with the
 * engine forward and Session's drain at every candidate precision,
 * flush() computing on its caller (also while racing the dispatcher
 * and producers), clean shutdown with in-flight requests, and a
 * multi-producer submit hammer. Every
 * batching decision runs against an injected ManualClock, so the
 * asserted quantities are deterministic — including under the
 * TWOINONE_THREADS=1/4 and TWOINONE_BACKEND=naive ctest matrix and
 * under TSan.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.hh"
#include "nn/model_zoo.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/server.hh"
#include "serve/session.hh"

namespace twoinone {
namespace {

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
expectBitIdentical(const Tensor &a, const Tensor &b,
                   const std::string &what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " i=" << i;
}

SessionConfig
tenantConfig(uint64_t seed, int max_batch = 8, int micro_batch = 4)
{
    SessionConfig cfg;
    cfg.serving.maxBatch = max_batch;
    cfg.serving.microBatch = micro_batch;
    cfg.serving.seed = seed;
    cfg.serving.lazyPlanWarmup = true;
    cfg.inputShape = {3, 8, 8};
    return cfg;
}

/** A frozen clock + paused start make batch composition a pure
 * function of the submission order. */
serve::ServerConfig
frozenConfig(const Clock &clock, double delay_us = 0.0)
{
    serve::ServerConfig sc;
    sc.clock = &clock;
    sc.maxBatchDelayUs = delay_us;
    sc.startPaused = true;
    return sc;
}

/** With the clock frozen and age close armed, nothing closes until
 * the clock moves — and then everything pending serves as ONE batch:
 * a premature per-request close would show up as extra batches (and
 * differing per-batch precision draws). */
TEST(Server, ClosesOnAgeOnlyWhenTheClockSaysSo)
{
    Network net = makeTinyNet(11);
    ManualClock clock;
    serve::Server server(frozenConfig(clock, /*delay_us=*/100.0));
    Session session = Session::attach(net, tenantConfig(21));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> f1 =
        server.submit(tenant, makeInput(1, 2));
    std::future<serve::Reply> f2 =
        server.submit(tenant, makeInput(2, 2));

    // 4 of 8 rows pending: under the frozen clock this batch can only
    // close on age, and the clock has not moved yet.
    clock.advanceUs(101);
    server.resume();

    serve::Reply r1 = f1.get();
    serve::Reply r2 = f2.get();
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.rows, 4u);
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(r1.precision, r2.precision); // one draw for the batch
    server.stop();
}

/** A full batch closes on size with the clock frozen at zero — age
 * never fires, yet the requests serve. */
TEST(Server, ClosesOnSizeWithoutAnyClockMovement)
{
    Network net = makeTinyNet(12);
    ManualClock clock;
    serve::Server server(frozenConfig(clock, /*delay_us=*/1000.0));
    Session session = Session::attach(net, tenantConfig(22));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> f1 =
        server.submit(tenant, makeInput(3, 4));
    std::future<serve::Reply> f2 =
        server.submit(tenant, makeInput(4, 4));
    server.resume();

    f1.get();
    f2.get();
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.batches, 1u); // 4 + 4 = maxBatch: one size close
    EXPECT_EQ(s.rows, 8u);
    server.stop();
}

/** An expired deadline sheds the request before compute: the future
 * delivers ServeError, no precision is drawn for it, and the shed is
 * counted. */
TEST(Server, DeadlineExpiryShedsBeforeCompute)
{
    Network net = makeTinyNet(13);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, tenantConfig(23));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> doomed =
        server.submit(tenant, makeInput(5, 2), /*deadline_us=*/100);
    clock.advanceUs(200); // past the deadline before any batch forms
    server.resume();
    server.flush();

    EXPECT_THROW(doomed.get(), serve::ServeError);
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.batches, 0u); // the batch emptied: no compute, no draw
    EXPECT_TRUE(server.precisionTrace(tenant).empty());

    // The server keeps serving after the shed.
    std::future<serve::Reply> ok =
        server.submit(tenant, makeInput(6, 2), /*deadline_us=*/100);
    server.flush();
    EXPECT_EQ(ok.get().y.dim(0), 2);
    server.stop();
}

/** A full admission queue sheds at submit() with ServeError — counted,
 * and the queued requests still serve. */
TEST(Server, AdmissionControlShedsWhenQueueIsFull)
{
    Network net = makeTinyNet(14);
    ManualClock clock;
    serve::ServerConfig sc = frozenConfig(clock);
    sc.queueCapacity = 3;
    serve::Server server(sc);
    Session session = Session::attach(net, tenantConfig(24));
    int tenant = server.addTenant(session);

    std::vector<std::future<serve::Reply>> admitted;
    int sheds = 0;
    for (int i = 0; i < 5; ++i) {
        try {
            admitted.push_back(
                server.submit(tenant, makeInput(100 + i, 2)));
        } catch (const serve::ServeError &) {
            ++sheds;
        }
    }
    EXPECT_EQ(sheds, 2);
    EXPECT_EQ(server.stats().shed, 2u);

    server.resume();
    server.flush();
    for (auto &f : admitted)
        EXPECT_EQ(f.get().y.dim(0), 2);
    EXPECT_EQ(server.stats().rows, 6u);
    server.stop();
}

/** A malformed request is rejected synchronously at submit, counted,
 * and does not disturb the well-formed traffic around it. */
TEST(Server, MalformedRequestsRejectedWithoutDisruption)
{
    Network net = makeTinyNet(15);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, tenantConfig(25));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> good =
        server.submit(tenant, makeInput(7, 2));
    EXPECT_THROW(server.submit(tenant, Tensor({2, 3}, 0.5f)),
                 serve::ServeError); // wrong rank
    EXPECT_THROW(server.submit(tenant, makeInput(8, 9)),
                 serve::ServeError); // rows > maxBatch
    server.resume();
    server.flush();
    EXPECT_EQ(good.get().y.dim(0), 2);
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.requests, 1u);
    server.stop();
}

/** Round-robin fairness: with both tenants backlogged, batch
 * completions alternate — the heavier tenant cannot starve the
 * lighter one. */
TEST(Server, FairSchedulingAcrossTwoTenants)
{
    Network net = makeTinyNet(16);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));

    // Tenants of one model share its engine.
    Session a = Session::attach(net, tenantConfig(26));
    Session b =
        Session::attach(net, a.engine(), tenantConfig(27));
    int ta = server.addTenant(a);
    int tb = server.addTenant(b);

    // Every request fills a whole batch, so each turn serves exactly
    // one request. A floods; B sends two.
    for (int i = 0; i < 6; ++i)
        server.submit(ta, makeInput(200 + i, 8));
    for (int i = 0; i < 2; ++i)
        server.submit(tb, makeInput(300 + i, 8));
    server.resume();
    server.flush();

    std::vector<int> expected = {ta, tb, ta, tb, ta, ta, ta, ta};
    EXPECT_EQ(server.batchLog(), expected);
    EXPECT_EQ(server.tenantStats(ta).batches, 6u);
    EXPECT_EQ(server.tenantStats(tb).batches, 2u);
    // Per-tenant precision streams are independent and seeded.
    EXPECT_EQ(server.precisionTrace(ta).size(), 6u);
    EXPECT_EQ(server.precisionTrace(tb).size(), 2u);
    server.stop();
}

/** A paused single-tenant Server on a frozen clock packs whole
 * requests in submission order and serves each batch at its drawn
 * precision. On a calibrated net (static scales make a row's logits
 * independent of its batch peers) every reply equals a direct engine
 * forward at the reply's precision — pinned per candidate through
 * single-candidate engines — and the mixed request sizes pack into
 * exactly the batches the whole-request rule allows. Across the full
 * rps4to16 set, Session::serve — the synchronous drain, itself a
 * single-tenant Server — replays an external server's trace and
 * logits at the same seed. */
TEST(Server, BitIdenticalToSynchronousDrainAtEveryCandidate)
{
    // Mixed request sizes exercise the whole-request packing rule:
    // {4,3} {8} {2,5,1} {6} {7} at maxBatch 8.
    const std::vector<int> rows = {4, 3, 8, 2, 5, 1, 6, 7};
    const size_t kBatches = 5;

    Network net = makeTinyNet(17);
    {
        Rng cal_rng(61);
        Calibrator cal(net);
        cal.calibrate(
            {Tensor::uniform({8, 3, 8, 8}, cal_rng, 0.0f, 1.0f)});
    }
    for (int bits : net.precisionSet().bits()) {
        // A single-candidate engine pins every draw to `bits`.
        RpsEngine engine(net, PrecisionSet({bits}));
        ManualClock clock;
        serve::Server server(frozenConfig(clock));
        Session session = Session::attach(net, engine, tenantConfig(99));
        int tenant = server.addTenant(session);
        std::vector<std::future<serve::Reply>> futs;
        for (size_t i = 0; i < rows.size(); ++i)
            futs.push_back(server.submit(
                tenant, makeInput(500 + i, rows[i])));
        server.flush();

        for (size_t i = 0; i < rows.size(); ++i) {
            serve::Reply r = futs[i].get();
            EXPECT_EQ(r.precision, bits);
            expectBitIdentical(
                engine.forwardQuantizedAt(bits,
                                          makeInput(500 + i, rows[i])),
                r.y,
                "bits=" + std::to_string(bits) +
                    " req=" + std::to_string(i));
        }
        EXPECT_EQ(server.tenantStats(tenant).batches, kBatches);
        EXPECT_EQ(server.precisionTrace(tenant),
                  std::vector<int>(kBatches, bits));
        server.stop();
    }

    // Full candidate set: the external tenant's seeded sampler replays
    // the session drain's draws, so packing AND precisions agree.
    RpsEngine engine(net);
    std::vector<Tensor> xs;
    for (size_t i = 0; i < rows.size(); ++i)
        xs.push_back(makeInput(600 + i, rows[i]));
    Session drained = Session::attach(net, engine, tenantConfig(4242));
    std::vector<Tensor> ys = drained.serve(xs);
    ASSERT_EQ(drained.precisionTrace().size(), kBatches);

    ManualClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, engine, tenantConfig(4242));
    int tenant = server.addTenant(session);
    std::vector<std::future<serve::Reply>> futs;
    for (const Tensor &x : xs)
        futs.push_back(server.submit(tenant, x));
    server.flush();
    for (size_t i = 0; i < rows.size(); ++i) {
        serve::Reply r = futs[i].get();
        std::string what = "rps req=" + std::to_string(i);
        expectBitIdentical(ys[i], r.y, what);
        expectBitIdentical(engine.forwardQuantizedAt(r.precision, xs[i]),
                           r.y, what);
    }
    EXPECT_EQ(server.precisionTrace(tenant), drained.precisionTrace());
    server.stop();
}

/**
 * A frozen clock that records which thread made every nowNs() call
 * and can hold the dispatcher mid-batch: calls from the constructing
 * thread pass; of the others, the @p hold_at-th (0 = none) blocks
 * until release().
 */
class RecordingClock : public Clock
{
  public:
    explicit RecordingClock(int hold_at = 0)
        : main_(std::this_thread::get_id()), holdAt_(hold_at)
    {
    }

    uint64_t nowNs() const override
    {
        std::unique_lock<std::mutex> lk(mu_);
        std::thread::id self = std::this_thread::get_id();
        calls_.push_back(self);
        if (self != main_ && ++others_ == holdAt_) {
            held_ = true;
            cv_.notify_all();
            cv_.wait(lk, [this] { return released_; });
        }
        return 0;
    }

    /** Block until a call is being held; returns the calls so far. */
    size_t waitHeld() const
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return held_; });
        return calls_.size();
    }

    void release()
    {
        std::lock_guard<std::mutex> lk(mu_);
        released_ = true;
        cv_.notify_all();
    }

    /** The calling thread of every call so far, in call order. */
    std::vector<std::thread::id> calls() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return calls_;
    }

  private:
    const std::thread::id main_;
    const int holdAt_;
    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    mutable std::vector<std::thread::id> calls_;
    mutable int others_ = 0;
    mutable bool held_ = false;
    bool released_ = false;
};

/** flush() picks and executes batches on the calling thread: on a
 * paused server, every clock read after the submits (batch pick,
 * deadline check, completion stamp) comes from the flushing thread,
 * never the dispatcher — which is what lets a ScopedSerial around a
 * drain reach the compute. */
TEST(Server, FlushComputesOnTheCallingThread)
{
    Network net = makeTinyNet(28);
    RpsEngine engine(net);
    RecordingClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, engine, tenantConfig(28));
    int tenant = server.addTenant(session);

    std::vector<std::future<serve::Reply>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(server.submit(tenant, makeInput(700 + i)));
    size_t submitted = clock.calls().size();

    std::thread::id flusher;
    std::thread t([&] {
        flusher = std::this_thread::get_id();
        server.flush();
    });
    t.join();

    std::vector<std::thread::id> calls = clock.calls();
    ASSERT_GT(calls.size(), submitted) << "flush never read the clock";
    for (size_t i = submitted; i < calls.size(); ++i)
        EXPECT_EQ(calls[i], flusher) << "clock read " << i;
    EXPECT_EQ(server.tenantStats(tenant).batches, 3u);
    for (auto &f : futs)
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    server.stop();
}

/** A flush() that arrives while the dispatcher executes a batch waits
 * that batch out before picking anything: with the dispatcher held
 * inside its batch (its second clock read — the deadline check after
 * the pick), the flushing thread reads no clock, i.e. picks and runs
 * nothing, until the batch is released; then it serves the rest. */
TEST(Server, FlushWaitsOutTheDispatchersBatch)
{
    Network net = makeTinyNet(30);
    RpsEngine engine(net);
    RecordingClock clock(/*hold_at=*/2);
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, engine, tenantConfig(30));
    int tenant = server.addTenant(session);

    // Two 4-row requests fill a batch; the third waits for the flush.
    std::vector<std::future<serve::Reply>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(server.submit(tenant, makeInput(750 + i)));
    server.resume();
    size_t held_at = clock.waitHeld();

    std::thread flusher([&] { server.flush(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(clock.calls().size(), held_at)
        << "flush picked a batch while the dispatcher's was running";
    clock.release();
    flusher.join();

    EXPECT_EQ(server.tenantStats(tenant).batches, 2u);
    for (auto &f : futs)
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    server.stop();
}

/** flush() racing a running dispatcher and concurrent producers loses
 * no request and never runs two batches at once: every reply equals a
 * direct forward at the engine's single candidate (two batches on the
 * shared plan replicas at once would overwrite each other's arenas —
 * and the TSan job flags the race itself). */
TEST(Server, FlushRacingDispatcherAndProducersLosesNothing)
{
    Network net = makeTinyNet(29);
    {
        Rng cal_rng(62);
        Calibrator cal(net);
        cal.calibrate(
            {Tensor::uniform({8, 3, 8, 8}, cal_rng, 0.0f, 1.0f)});
    }
    RpsEngine engine(net, PrecisionSet({8}));

    const int kProducers = 3;
    const int kPerProducer = 48;
    std::vector<std::vector<Tensor>> xs(kProducers);
    std::vector<std::vector<Tensor>> refs(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        for (int i = 0; i < kPerProducer; ++i) {
            xs[p].push_back(makeInput(800 + 100 * p + i, 2 + i % 3));
            refs[p].push_back(engine.forwardQuantizedAt(8, xs[p][i]));
        }
    }

    // Running dispatcher on a frozen clock: it serves size-closed
    // batches while producers submit; partial ones wait for a flush.
    ManualClock clock;
    serve::ServerConfig sc;
    sc.clock = &clock;
    sc.maxBatchDelayUs = 0.0;
    serve::Server server(sc);
    Session session = Session::attach(net, engine, tenantConfig(29));
    int tenant = server.addTenant(session);

    std::vector<std::vector<std::future<serve::Reply>>> futs(kProducers);
    std::atomic<bool> producing{true};
    std::thread flusher([&] {
        // Pause between flushes so the dispatcher gets to start
        // batches that a flush then has to wait out.
        while (producing.load()) {
            server.flush();
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            // Paced, so the dispatcher keeps closing batches on size
            // throughout and flushes keep landing mid-batch.
            for (int i = 0; i < kPerProducer; ++i) {
                futs[p].push_back(server.submit(tenant, xs[p][i]));
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            }
        });
    }
    for (auto &t : producers)
        t.join();
    producing.store(false);
    flusher.join();
    server.flush();

    for (int p = 0; p < kProducers; ++p) {
        for (int i = 0; i < kPerProducer; ++i) {
            std::future<serve::Reply> &f = futs[p][i];
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
            serve::Reply r = f.get();
            EXPECT_EQ(r.precision, 8);
            expectBitIdentical(refs[p][i], r.y,
                               "producer " + std::to_string(p) +
                                   " req " + std::to_string(i));
        }
    }
    serve::ServeStats st = server.stats();
    EXPECT_EQ(st.requests,
              static_cast<uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(st.shed, 0u);
    server.stop();
}

/** Stopping with requests still queued shed them all through their
 * futures — no hang, no leak (the ASan job runs this binary). */
TEST(Server, ShutdownShedsInFlightRequests)
{
    Network net = makeTinyNet(18);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, tenantConfig(28));
    int tenant = server.addTenant(session);

    std::vector<std::future<serve::Reply>> futs;
    for (int i = 0; i < 5; ++i)
        futs.push_back(server.submit(tenant, makeInput(700 + i, 3)));
    server.stop(); // still paused: nothing was served

    for (auto &f : futs)
        EXPECT_THROW(f.get(), serve::ServeError);
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.shed, 5u);
    EXPECT_EQ(s.requests, 0u);
}

/** Destruction without an explicit stop() sheds the same way. */
TEST(Server, DestructorShedsWithoutExplicitStop)
{
    Network net = makeTinyNet(19);
    ManualClock clock;
    std::vector<std::future<serve::Reply>> futs;
    {
        serve::Server server(frozenConfig(clock));
        Session session = Session::attach(net, tenantConfig(29));
        int tenant = server.addTenant(session);
        for (int i = 0; i < 3; ++i)
            futs.push_back(
                server.submit(tenant, makeInput(800 + i, 2)));
    }
    for (auto &f : futs)
        EXPECT_THROW(f.get(), serve::ServeError);
}

/** Multi-producer hammer: N threads submit M requests each through
 * the sharded queue while the dispatcher serves. Every future
 * completes, nothing is shed or lost, and every reply matches the
 * engine's reference forward at the reply's own precision — correct
 * for any interleaving, deterministic in the counted quantities via
 * the frozen clock. */
TEST(Server, MultiProducerSubmitHammer)
{
    const int kThreads = 4;
    const int kPerThread = 16;

    Network net = makeTinyNet(20);
    {
        // Static activation scales: the per-request reference forward
        // below must not depend on which batch the request landed in.
        Rng cal_rng(61);
        Calibrator cal(net);
        cal.calibrate(
            {Tensor::uniform({8, 3, 8, 8}, cal_rng, 0.0f, 1.0f)});
    }
    RpsEngine engine(net, net.precisionSet());
    ManualClock clock;
    serve::ServerConfig sc;
    sc.clock = &clock; // frozen: batches close on size/flush only
    sc.maxBatchDelayUs = 0.0;
    sc.queueCapacity = kThreads * kPerThread;
    serve::Server server(sc);
    Session session = Session::attach(net, engine, tenantConfig(30));
    int tenant = server.addTenant(session);

    struct Sent
    {
        Tensor x;
        std::future<serve::Reply> fut;
    };
    std::vector<std::vector<Sent>> sent(
        static_cast<size_t>(kThreads));
    std::vector<std::thread> producers;
    producers.reserve(static_cast<size_t>(kThreads));
    for (int p = 0; p < kThreads; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerThread; ++i) {
                Sent s;
                s.x = makeInput(
                    static_cast<uint64_t>(1000 + p * 100 + i), 2);
                s.fut = server.submit(tenant, s.x);
                sent[static_cast<size_t>(p)].push_back(std::move(s));
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    server.flush();

    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.requests,
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(s.rows,
              static_cast<uint64_t>(kThreads * kPerThread * 2));
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(server.precisionTrace(tenant).size(), s.batches);

    // Each reply must equal the reference forward at its own batch's
    // precision — independent of how the producers interleaved.
    for (auto &per_thread : sent) {
        for (Sent &rec : per_thread) {
            serve::Reply r = rec.fut.get();
            Tensor ref = engine.forwardQuantizedAt(r.precision, rec.x);
            expectBitIdentical(ref, r.y, "hammer");
        }
    }
    server.stop();
}

/** Round-robin stays the default policy: specs and servers predating
 * the knob keep their batch order bit-identical. */
TEST(Server, RoundRobinIsTheDefaultPolicy)
{
    serve::ServerConfig sc;
    EXPECT_EQ(sc.policy, serve::SchedulingPolicy::RoundRobin);
    EXPECT_STREQ(serve::schedulingPolicyName(sc.policy),
                 "round_robin");
    EXPECT_STREQ(serve::schedulingPolicyName(
                     serve::SchedulingPolicy::EarliestDeadlineFirst),
                 "edf");
}

/** EDF picks the tenant whose oldest pending request has the nearest
 * deadline; deadline-free tenants queue behind every deadline-bearing
 * one. The same submission order under round-robin alternates (the
 * fairness test above) — the policy genuinely changes the pick. */
TEST(Server, EdfServesTheDeadlineUrgentTenantFirst)
{
    Network net = makeTinyNet(33);
    ManualClock clock;
    serve::ServerConfig sc = frozenConfig(clock);
    sc.policy = serve::SchedulingPolicy::EarliestDeadlineFirst;
    serve::Server server(sc);

    Session a = Session::attach(net, tenantConfig(34));
    Session b = Session::attach(net, a.engine(), tenantConfig(35));
    Session c = Session::attach(net, a.engine(), tenantConfig(36));
    int ta = server.addTenant(a);
    int tb = server.addTenant(b);
    int tc = server.addTenant(c);

    // A floods first, without deadlines; B's deadline is looser than
    // C's. Every request fills a whole batch (one pick per turn).
    for (int i = 0; i < 3; ++i)
        server.submit(ta, makeInput(400 + i, 8));
    for (int i = 0; i < 2; ++i)
        server.submit(tb, makeInput(500 + i, 8),
                      /*deadline_us=*/800000);
    for (int i = 0; i < 2; ++i)
        server.submit(tc, makeInput(600 + i, 8),
                      /*deadline_us=*/400000);
    server.resume();
    server.flush();

    std::vector<int> expected = {tc, tc, tb, tb, ta, ta, ta};
    EXPECT_EQ(server.batchLog(), expected);
    EXPECT_EQ(server.tenantStats(ta).batches, 3u);
    EXPECT_EQ(server.tenantStats(tb).batches, 2u);
    EXPECT_EQ(server.tenantStats(tc).batches, 2u);
    EXPECT_EQ(server.stats().shed, 0u); // ordered, nothing expired
    server.stop();
}

/** With every tenant deadline-free, EDF ties resolve to the lowest
 * tenant id — deterministic, and a backlogged heavy tenant drains
 * before a later-registered one (documented starvation trade-off the
 * scheduling term of the autotuner weighs against round-robin). */
TEST(Server, EdfTiesResolveToTheLowestTenantId)
{
    Network net = makeTinyNet(37);
    ManualClock clock;
    serve::ServerConfig sc = frozenConfig(clock);
    sc.policy = serve::SchedulingPolicy::EarliestDeadlineFirst;
    serve::Server server(sc);

    Session a = Session::attach(net, tenantConfig(38));
    Session b = Session::attach(net, a.engine(), tenantConfig(39));
    int ta = server.addTenant(a);
    int tb = server.addTenant(b);

    for (int i = 0; i < 2; ++i)
        server.submit(ta, makeInput(700 + i, 8));
    for (int i = 0; i < 2; ++i)
        server.submit(tb, makeInput(800 + i, 8));
    server.resume();
    server.flush();

    std::vector<int> expected = {ta, ta, tb, tb};
    EXPECT_EQ(server.batchLog(), expected);
    server.stop();
}

/** pause() halts batch formation while admission stays open; resume()
 * serves the accumulated backlog. */
TEST(Server, PauseHoldsTrafficResumeReleasesIt)
{
    Network net = makeTinyNet(31);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, tenantConfig(32));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> f =
        server.submit(tenant, makeInput(900, 8));
    EXPECT_EQ(server.queued(tenant), 1u);
    EXPECT_EQ(server.stats().batches, 0u);
    server.resume();
    EXPECT_EQ(f.get().y.dim(0), 8);
    EXPECT_EQ(server.stats().batches, 1u);
    server.stop();
}

} // namespace
} // namespace twoinone
