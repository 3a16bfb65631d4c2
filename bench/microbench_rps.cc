/**
 * @file
 * RPS inference-engine microbenchmark (ISSUE 2).
 *
 * Measures the cost of a precision switch with and without the
 * RpsEngine per-precision weight cache, the cached vs uncached
 * forward pass, and the accelerator per-layer sweep wall-clock with
 * and without the thread pool — and verifies that the cached forward
 * is bit-identical to the from-scratch fake-quant path at every
 * candidate in rps4to16(). Writes BENCH_rps.json so the trajectory is
 * tracked per PR.
 *
 * JSON schema (times are mean wall ns per operation):
 *   meta:    { threads, fast, model, precision_set, cache_bytes }
 *   switch:  { uncached_ns, cached_ns, speedup }   (one full
 *            precision switch, averaged over the candidate set)
 *   forward: [ { bits, uncached_ns, cached_ns, speedup } ]
 *   quant_forward: [ { bits, float_cached_ns, quant_ns, speedup } ]
 *            (calibrated static-scale integer forward — the network's
 *            unfused reference plan, Network::forwardQuantized — vs
 *            the cached dynamic float fake-quant forward)
 *   quant_forward_speedup: mean of the per-bits speedups
 *   plan_forward: [ { bits, legacy_ns, plan_ns, speedup } ]
 *            (plan_ns: the fused quantized plan every serving path
 *            runs; legacy_ns: the network's unfused reference plan;
 *            the ratio is what producer fusion — SBN+ReLU and
 *            SBN+ReLU+quantize steps — saves)
 *   plan_forward_speedup: mean of the per-bits speedups
 *   serve_qps: { serial_qps, parallel_qps, scaling, p50_us, p99_us }
 *            (Session-fronted batched RPS serving, one thread vs the
 *            full pool — ISSUE 4)
 *   session_cold_start: { eager_ns, lazy_ns, speedup }
 *            (serving-runtime construction with eager per-candidate
 *            plan warm-up vs lazy compilation — ISSUE 5)
 *   int_gemm: { m, n, k, bits, ns, gops, sgemm_ns, sgemm_gflops,
 *               isa_tier }
 *            (the packed 8-bit kernel vs the blocked float kernel)
 *   sweep:   { serial_ns, parallel_ns, speedup }   (accelerator
 *            layers x precisions sweep, resnet18-cifar x rps4to16)
 *   bit_identical: true/false
 *
 * Exits non-zero when the cached forward is not bit-identical, the
 * cached switch speedup falls below the 10x acceptance floor, the
 * calibrated quantized forward is not >= 1.3x the cached float
 * forward, the fused plan forward is not >= 1.15x the unfused
 * reference plan, (with >= 4 pool threads on >= 4 hardware
 * cores) serving throughput does not scale >= 1.5x from one thread to
 * the pool (ISSUE 4), or — on machines whose dispatched ISA tier is
 * avx512vnni — the packed 8-bit GEMM does not reach the blocked float
 * GFLOP/s on the same shape (ISSUE 8: the quantized path must win on
 * compute, not just memory traffic).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accel/accelerator.hh"
#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/runtime.hh"
#include "serve/session.hh"
#include "tensor/gemm.hh"
#include "workloads/model_library.hh"

namespace {

using namespace twoinone;
using Clock = std::chrono::steady_clock;

/** Mean wall ns/op of fn, run repeatedly for a minimum budget. */
double
timeNs(const std::function<void()> &fn, double min_seconds)
{
    fn(); // warm-up
    int64_t reps = 0;
    auto start = Clock::now();
    double elapsed = 0.0;
    do {
        fn();
        ++reps;
        elapsed = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    } while (elapsed < min_seconds || reps < 3);
    return elapsed * 1e9 / static_cast<double>(reps);
}

struct ForwardRow
{
    int bits;
    double uncached_ns = 0.0;
    double cached_ns = 0.0;
};

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

} // namespace

int
main()
{
    bool fast = bench::fastMode();
    double min_seconds = fast ? 0.05 : 0.25;

    bench::banner("RPS engine microbenchmarks (cached vs uncached "
                  "precision switching)");
    std::cout << "threads=" << ThreadPool::global().threads()
              << (fast ? " (fast mode)" : "") << "\n\n";

    Rng rng(2024);
    ModelConfig mcfg;
    mcfg.baseWidth = fast ? 8 : 16;
    Network net = preActResNetMini(mcfg, rng);
    PrecisionSet set = net.precisionSet();
    Rng data_rng(7);
    Tensor x = Tensor::uniform({fast ? 4 : 8, 3, 8, 8}, data_rng, 0.0f,
                               1.0f);

    RpsEngine engine(net);
    std::vector<WeightQuantizedLayer *> wlayers =
        net.weightQuantizedLayers();
    size_t weight_scalars = 0;
    for (WeightQuantizedLayer *l : wlayers)
        weight_scalars += l->masterWeight().size();
    std::cout << "model=preact_mini  quant_layers=" << wlayers.size()
              << "  weight_scalars=" << weight_scalars
              << "  cache=" << engine.cacheBytes() << " bytes\n";

    // Shared warm-up: install every candidate once (building each
    // cell's tile pack on first install) and touch both forward paths,
    // so no timed section below pays first-touch cache builds.
    for (int bits : set.bits()) {
        engine.setPrecision(bits);
        net.forward(x, false);
        net.forwardQuantized(x);
    }

    // --- Precision switch: uncached re-quantization vs cache install.
    // An uncached switch pays one fakeQuantSymmetric pass per weight
    // tensor (what the next forward would run); a cached switch
    // installs the pre-quantized entries. Cycle the candidate set so
    // both paths average over the same precisions.
    size_t cursor = 0;
    double uncached_switch_ns = timeNs(
        [&] {
            int bits = set.bits()[cursor++ % set.size()];
            for (WeightQuantizedLayer *l : wlayers) {
                QuantResult r = LinearQuantizer::fakeQuantSymmetric(
                    l->masterWeight(), bits);
                (void)r;
            }
        },
        min_seconds);
    cursor = 0;
    double cached_switch_ns = timeNs(
        [&] { engine.setPrecision(set.bits()[cursor++ % set.size()]); },
        min_seconds);
    double switch_speedup = uncached_switch_ns / cached_switch_ns;
    std::printf("\n%-24s %14s %14s %8s\n", "precision switch",
                "uncached_ns", "cached_ns", "speedup");
    std::printf("%-24s %14.0f %14.0f %7.1fx\n", "avg over set",
                uncached_switch_ns, cached_switch_ns, switch_speedup);

    // --- Forward pass + bit-identity per candidate -----------------
    bool bit_identical = true;
    std::vector<ForwardRow> fwd_rows;
    for (int bits : set.bits()) {
        ForwardRow row;
        row.bits = bits;

        engine.detach();
        net.setPrecision(bits);
        Tensor y_ref = net.forward(x, false);
        row.uncached_ns =
            timeNs([&] { net.forward(x, false); }, min_seconds);

        Tensor y_cached = engine.forwardAt(bits, x);
        row.cached_ns =
            timeNs([&] { net.forward(x, false); }, min_seconds);

        if (!y_ref.sameShape(y_cached)) {
            bit_identical = false;
        } else {
            for (size_t i = 0; i < y_ref.size(); ++i) {
                if (y_ref[i] != y_cached[i]) {
                    bit_identical = false;
                    break;
                }
            }
        }
        fwd_rows.push_back(row);
    }
    std::printf("\n%-8s %14s %14s %8s\n", "forward", "uncached_ns",
                "cached_ns", "speedup");
    for (const ForwardRow &r : fwd_rows)
        std::printf("%-8d %14.0f %14.0f %7.2fx\n", r.bits, r.uncached_ns,
                    r.cached_ns, r.uncached_ns / r.cached_ns);
    std::cout << "cached forward bit-identical: "
              << (bit_identical ? "yes" : "NO") << "\n";

    // --- Quantized forward: calibrated static scales + int codes ---
    // The float rows above are the PR 2 cached path (dynamic
    // activation fake-quant); the quantized forward runs the same
    // cached codes through the integer GEMM kernels with calibrated
    // static activation scales — no range reduction, no fake-quant.
    Calibrator cal(net);
    cal.calibrate({x});
    struct QuantRow
    {
        int bits;
        double float_cached_ns = 0.0;
        double quant_ns = 0.0;
    };
    std::vector<QuantRow> quant_rows;
    double speedup_sum = 0.0;
    for (size_t i = 0; i < fwd_rows.size(); ++i) {
        QuantRow row;
        row.bits = fwd_rows[i].bits;
        row.float_cached_ns = fwd_rows[i].cached_ns;
        engine.setPrecision(row.bits);
        row.quant_ns =
            timeNs([&] { net.forwardQuantized(x); }, min_seconds);
        speedup_sum += row.float_cached_ns / row.quant_ns;
        quant_rows.push_back(row);
    }
    double quant_speedup =
        speedup_sum / static_cast<double>(quant_rows.size());
    std::printf("\n%-8s %14s %14s %8s\n", "quantfwd", "float_cached",
                "quant_ns", "speedup");
    for (const QuantRow &r : quant_rows)
        std::printf("%-8d %14.0f %14.0f %7.2fx\n", r.bits,
                    r.float_cached_ns, r.quant_ns,
                    r.float_cached_ns / r.quant_ns);
    std::printf("mean quantized-forward speedup: %.2fx\n", quant_speedup);

    // --- Fused plan vs the network's unfused reference plan --------
    // Same precision state and calibrated scales as the quant rows,
    // whose timings (Network::forwardQuantized) are the unfused side:
    // both run the identical kernels over an allocation-free arena,
    // so the ratio is what producer fusion saves.
    std::unique_ptr<serve::ExecutionPlan> qplan =
        net.compile(set, serve::PlanMode::Quantized, x.shape());
    struct PlanRow
    {
        int bits;
        double legacy_ns = 0.0;
        double plan_ns = 0.0;
    };
    std::vector<PlanRow> plan_rows;
    double plan_speedup_sum = 0.0;
    for (const QuantRow &q : quant_rows) {
        PlanRow row;
        row.bits = q.bits;
        row.legacy_ns = q.quant_ns;
        engine.setPrecision(row.bits);
        row.plan_ns = timeNs([&] { qplan->run(x); }, min_seconds);
        plan_speedup_sum += row.legacy_ns / row.plan_ns;
        plan_rows.push_back(row);
    }
    double plan_speedup =
        plan_speedup_sum / static_cast<double>(plan_rows.size());
    std::printf("\n%-8s %14s %14s %8s\n", "planfwd", "legacy_ns",
                "plan_ns", "speedup");
    for (const PlanRow &r : plan_rows)
        std::printf("%-8d %14.0f %14.0f %7.2fx\n", r.bits, r.legacy_ns,
                    r.plan_ns, r.legacy_ns / r.plan_ns);
    std::printf("mean plan-forward speedup: %.2fx  (%zu steps, "
                "%zu KiB arena)\n",
                plan_speedup, qplan->numSteps(),
                qplan->arenaBytes() / 1024);

    // --- Batched RPS serving throughput ----------------------------
    // The Session facade wires the serving stack (plans + a
    // single-tenant Server) around the shared net/engine, and drain()
    // computes on the calling thread; requests pack into batches, one
    // random precision per batch from the engine cache, micro-batches
    // sharded across the pool. Serial (ScopedSerial) vs the full pool
    // measures thread scaling of the serving datapath. Eager plan
    // warm-up: this section measures steady-state throughput, not
    // cold start (that is session_cold_start below).
    int serve_rows_per_req = fast ? 4 : 8;
    int serve_requests = fast ? 24 : 48;
    serve::ServeConfig scfg;
    scfg.maxBatch = serve_rows_per_req * 4;
    scfg.microBatch = serve_rows_per_req;
    auto serve_qps = [&](bool serial) {
        SessionConfig sess_cfg;
        sess_cfg.serving = scfg;
        sess_cfg.serving.lazyPlanWarmup = false;
        sess_cfg.inputShape = {3, 8, 8};
        Session sess = Session::attach(net, sess_cfg);
        Rng req_rng(17);
        for (int i = 0; i < serve_requests; ++i) {
            sess.submit(Tensor::uniform({serve_rows_per_req, 3, 8, 8},
                                        req_rng, 0.0f, 1.0f));
        }
        if (serial) {
            ThreadPool::ScopedSerial guard;
            sess.drain();
        } else {
            sess.drain();
        }
        return sess.stats();
    };
    serve::ServeStats serve_serial = serve_qps(true);
    serve::ServeStats serve_parallel = serve_qps(false);
    double serve_scaling = serve_serial.qps > 0.0
                               ? serve_parallel.qps / serve_serial.qps
                               : 0.0;
    std::printf("\n%-24s %14s %14s %8s\n", "serving (rows/s)",
                "serial_qps", "parallel_qps", "scaling");
    std::printf("%-24s %14.0f %14.0f %7.2fx\n", "rps batches",
                serve_serial.qps, serve_parallel.qps, serve_scaling);
    std::printf("parallel latency: p50 %.0f us  p99 %.0f us\n",
                serve_parallel.p50Us, serve_parallel.p99Us);

    // --- Session cold start: eager vs lazy plan compilation --------
    // Standing serving up compiles one plan replica per worker in a
    // BatchExecutor; eager warm-up dry-runs every candidate per
    // replica, lazy compilation (SessionConfig default) runs one
    // structural pass and lets each candidate size its buffers on
    // first serve.
    auto cold_start = [&](bool lazy) {
        serve::ServeConfig cs = scfg;
        cs.lazyPlanWarmup = lazy;
        serve::BatchExecutor exec(net, engine, {3, 8, 8}, cs);
        (void)exec;
    };
    double cold_eager_ns =
        timeNs([&] { cold_start(false); }, min_seconds);
    double cold_lazy_ns = timeNs([&] { cold_start(true); }, min_seconds);
    double cold_speedup = cold_eager_ns / cold_lazy_ns;
    std::printf("\n%-24s %14s %14s %8s\n", "session cold start",
                "eager_ns", "lazy_ns", "speedup");
    std::printf("%-24s %14.0f %14.0f %7.2fx\n", "runtime construction",
                cold_eager_ns, cold_lazy_ns, cold_speedup);

    // --- Integer GEMM kernel throughput ----------------------------
    // The packed 8-bit kernel (tile-ordered weights + runtime ISA
    // dispatch) against the blocked float SGEMM on the same shape —
    // the paper's core claim is that low-precision execution must win
    // on compute, not just memory traffic (ISSUE 8 tentpole gate).
    int gm = fast ? 128 : 256;
    Rng grng(31);
    std::vector<int32_t> iw(static_cast<size_t>(gm) * gm);
    std::vector<uint8_t> ib(static_cast<size_t>(gm) * gm);
    for (auto &v : iw)
        v = grng.uniformInt(-127, 127);
    for (auto &v : ib)
        v = static_cast<uint8_t>(grng.uniformInt(0, 255));
    gemm::PackedIntWeights ipw;
    gemm::packWeights(iw.data(), gm, gm, 8, ipw);
    std::vector<int64_t> ic(static_cast<size_t>(gm) * gm);
    double igemm_ns = timeNs(
        [&] {
            gemm::igemmPackedTransB(ipw, gm, ib.data(), gm, ic.data(),
                                    gm, 8);
        },
        min_seconds);
    double igemm_gops = 2.0 * gm * gm * gm / igemm_ns;
    Tensor fa = Tensor::randn({gm, gm}, grng);
    Tensor fb = Tensor::randn({gm, gm}, grng);
    Tensor fc({gm, gm});
    double sgemm_ns = timeNs(
        [&] {
            gemm::sgemm(gemm::Backend::Blocked, false, true, gm, gm, gm,
                        fa.data(), gm, fb.data(), gm, fc.data(), gm);
        },
        min_seconds);
    double sgemm_gflops = 2.0 * gm * gm * gm / sgemm_ns;
    const char *isa_tier = gemm::isaTierName(gemm::activeIsaTier());
    std::printf("\npacked int8 gemm %dx%dx%d [%s]: %.0f ns  %.1f GOPS "
                "(blocked sgemm: %.1f GFLOP/s)\n",
                gm, gm, gm, isa_tier, igemm_ns, igemm_gops,
                sgemm_gflops);

    // --- Accelerator sweep wall-clock: serial vs thread pool -------
    Accelerator ours(AcceleratorKind::TwoInOne,
                     Accelerator::defaultAreaBudget(),
                     TechModel::defaults());
    NetworkWorkload workload = workloads::resNet18Cifar(1);
    PrecisionSet sweep_set = PrecisionSet::rps4to16();
    double sweep_serial_ns = timeNs(
        [&] {
            ThreadPool::ScopedSerial guard;
            ours.sweep(workload, sweep_set);
        },
        min_seconds);
    double sweep_parallel_ns =
        timeNs([&] { ours.sweep(workload, sweep_set); }, min_seconds);
    std::printf("\n%-24s %14s %14s %8s\n", "accel sweep", "serial_ns",
                "parallel_ns", "speedup");
    std::printf("%-24s %14.0f %14.0f %7.2fx\n", "resnet18c x rps4to16",
                sweep_serial_ns, sweep_parallel_ns,
                sweep_serial_ns / sweep_parallel_ns);

    // --- JSON -------------------------------------------------------
    std::ofstream out("BENCH_rps.json");
    out << "{\n  \"meta\": {\"threads\": "
        << ThreadPool::global().threads() << ", \"fast\": "
        << (fast ? "true" : "false")
        << ", \"model\": \"preact_mini\", \"precision_set\": \""
        << set.name() << "\", \"isa_tier\": \"" << isa_tier
        << "\", \"cache_bytes\": " << engine.cacheBytes() << "},\n";
    out << "  \"switch\": {\"uncached_ns\": " << jsonNum(uncached_switch_ns)
        << ", \"cached_ns\": " << jsonNum(cached_switch_ns)
        << ", \"speedup\": " << jsonNum(switch_speedup) << "},\n";
    out << "  \"forward\": [\n";
    for (size_t i = 0; i < fwd_rows.size(); ++i) {
        const ForwardRow &r = fwd_rows[i];
        out << "    {\"bits\": " << r.bits << ", \"uncached_ns\": "
            << jsonNum(r.uncached_ns) << ", \"cached_ns\": "
            << jsonNum(r.cached_ns) << ", \"speedup\": "
            << jsonNum(r.uncached_ns / r.cached_ns) << "}"
            << (i + 1 < fwd_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"quant_forward\": [\n";
    for (size_t i = 0; i < quant_rows.size(); ++i) {
        const QuantRow &r = quant_rows[i];
        out << "    {\"bits\": " << r.bits << ", \"float_cached_ns\": "
            << jsonNum(r.float_cached_ns) << ", \"quant_ns\": "
            << jsonNum(r.quant_ns) << ", \"speedup\": "
            << jsonNum(r.float_cached_ns / r.quant_ns) << "}"
            << (i + 1 < quant_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"quant_forward_speedup\": " << jsonNum(quant_speedup)
        << ",\n";
    out << "  \"plan_forward\": [\n";
    for (size_t i = 0; i < plan_rows.size(); ++i) {
        const PlanRow &r = plan_rows[i];
        out << "    {\"bits\": " << r.bits << ", \"legacy_ns\": "
            << jsonNum(r.legacy_ns) << ", \"plan_ns\": "
            << jsonNum(r.plan_ns) << ", \"speedup\": "
            << jsonNum(r.legacy_ns / r.plan_ns) << "}"
            << (i + 1 < plan_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"plan_forward_speedup\": " << jsonNum(plan_speedup)
        << ",\n";
    out << "  \"serve_qps\": {\"serial_qps\": "
        << jsonNum(serve_serial.qps) << ", \"parallel_qps\": "
        << jsonNum(serve_parallel.qps) << ", \"scaling\": "
        << jsonNum(serve_scaling) << ", \"p50_us\": "
        << jsonNum(serve_parallel.p50Us) << ", \"p99_us\": "
        << jsonNum(serve_parallel.p99Us) << "},\n";
    out << "  \"session_cold_start\": {\"eager_ns\": "
        << jsonNum(cold_eager_ns) << ", \"lazy_ns\": "
        << jsonNum(cold_lazy_ns) << ", \"speedup\": "
        << jsonNum(cold_speedup) << "},\n";
    out << "  \"int_gemm\": {\"m\": " << gm << ", \"n\": " << gm
        << ", \"k\": " << gm << ", \"bits\": 8, \"ns\": "
        << jsonNum(igemm_ns) << ", \"gops\": " << jsonNum(igemm_gops)
        << ", \"sgemm_ns\": " << jsonNum(sgemm_ns)
        << ", \"sgemm_gflops\": " << jsonNum(sgemm_gflops)
        << ", \"isa_tier\": \"" << isa_tier << "\"},\n";
    out << "  \"sweep\": {\"serial_ns\": " << jsonNum(sweep_serial_ns)
        << ", \"parallel_ns\": " << jsonNum(sweep_parallel_ns)
        << ", \"speedup\": "
        << jsonNum(sweep_serial_ns / sweep_parallel_ns) << "},\n";
    out << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
        << "\n}\n";
    out.close();
    std::cout << "\nwrote BENCH_rps.json\n";

    if (!bit_identical) {
        std::cerr << "FAIL: cached forward diverged from the uncached "
                     "fake-quant path\n";
        return 1;
    }
    if (switch_speedup < 10.0) {
        std::cerr << "FAIL: cached precision switch speedup "
                  << switch_speedup << "x is below the 10x floor\n";
        return 1;
    }
    if (quant_speedup < 1.3) {
        std::cerr << "FAIL: calibrated quantized forward speedup "
                  << quant_speedup
                  << "x is below the 1.3x acceptance floor\n";
        return 1;
    }
    if (plan_speedup < 1.15) {
        std::cerr << "FAIL: compiled plan forward speedup "
                  << plan_speedup
                  << "x is below the 1.15x acceptance floor\n";
        return 1;
    }
    // The ALU-throughput inversion gate only binds where the VNNI
    // tier dispatched: AVX2/scalar machines still run correct packed
    // kernels but cannot be asked to outrun their own float SGEMM.
    if (gemm::activeIsaTier() == gemm::IsaTier::Avx512Vnni &&
        igemm_gops < sgemm_gflops) {
        std::cerr << "FAIL: packed int8 GEMM " << igemm_gops
                  << " GOPS is below the blocked float "
                  << sgemm_gflops << " GFLOP/s on the same shape\n";
        return 1;
    }
    // Thread scaling needs real cores behind the pool: a pool
    // oversubscribed onto fewer physical CPUs cannot express it.
    unsigned hw = std::thread::hardware_concurrency();
    if (ThreadPool::global().threads() >= 4 && hw >= 4 &&
        serve_scaling < 1.5) {
        std::cerr << "FAIL: serving throughput scaling "
                  << serve_scaling << "x (1 -> "
                  << ThreadPool::global().threads()
                  << " threads) is below the 1.5x acceptance floor\n";
        return 1;
    }
    return 0;
}
