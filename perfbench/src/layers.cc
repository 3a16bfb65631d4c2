/**
 * @file
 * Per-layer probes of the traced run (plan steps, executor replay,
 * precision install, checkpoint I/O, integer and float GEMM kernels)
 * and the helpers shared by every workload.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <regex>

#include "bench.hh"
#include "io/checkpoint.hh"
#include "io/stream.hh"
#include "serve/execution_plan.hh"
#include "stats.hh"
#include "tensor/gemm.hh"

namespace perfbench {

using namespace twoinone;

double
secondsSince(uint64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) / 1e9;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<double>
spanMs(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6);
    return out;
}

uint64_t
paramDigest(Network &net)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (Parameter *p : net.parameters())
        h = fnv1a(p->value.data(), p->value.size() * sizeof(float), h);
    return h;
}

double
drawTest(const std::vector<int> &trace, const std::vector<int> &candidates,
         std::vector<uint64_t> &hist, uint64_t &outside)
{
    hist.assign(candidates.size(), 0);
    outside = 0;
    for (int b : trace) {
        auto it = std::find(candidates.begin(), candidates.end(), b);
        if (it == candidates.end())
            ++outside;
        else
            ++hist[static_cast<size_t>(it - candidates.begin())];
    }
    return trace.empty() ? 1.0 : chiSquareUniformP(hist);
}

void
drawCheck(const std::vector<int> &trace, const std::vector<int> &candidates,
          RunResult &r)
{
    std::vector<uint64_t> hist;
    uint64_t outside = 0;
    double p = drawTest(trace, candidates, hist, outside);
    r.info["draw.draws"] = static_cast<double>(trace.size());
    r.info["draw.chi2_p"] = p;
    if (outside)
        r.fail("a precision outside the candidate set was drawn");
    if (p < 1e-4)
        r.fail("precision draws are not uniform (chi-square p < 1e-4)");
}

void
engineCounters(RpsEngine &e, RunResult &r)
{
    r.layer("quant.engine.hits", static_cast<double>(e.cacheHits()), "count");
    r.layer("quant.engine.misses", static_cast<double>(e.cacheMisses()),
            "count");
    r.layer("quant.engine.column_rebuilds",
            static_cast<double>(e.columnRebuilds()), "count");
    r.layer("quant.engine.pack_builds", static_cast<double>(e.packBuilds()),
            "count");
    r.layer("quant.engine.cache_mb", static_cast<double>(e.cacheBytes()) / 1e6,
            "MB");
}

namespace {

/** Step kind of a plan step label (see ExecutionPlan::describe()). */
std::string
stepKind(const std::string &label, bool first_conv)
{
    if (label.rfind("conv", 0) == 0) {
        if (first_conv)
            return "conv_stem";
        return label.find("k=1,") != std::string::npos ? "conv1x1"
                                                       : "conv3x3";
    }
    if (label.rfind("actquant", 0) == 0)
        return "actquant";
    if (label.rfind("sbn", 0) == 0 || label.rfind("relu", 0) == 0)
        return "sbn_relu";
    if (label.rfind("residual", 0) == 0)
        return "residual";
    if (label.rfind("linear", 0) == 0)
        return "linear";
    if (label.rfind("gap", 0) == 0)
        return "gap";
    return "other";
}

/**
 * Multiply-accumulates of each conv step at @p batch images of
 * @p hw x @p hw, from the "Conv2d(a->b, k=K, s=S, p=P)" labels. The
 * stand-ins use "same" padding, and every stride-2 conv of a block
 * (projection shortcut and first 3x3) reads the block input, so the
 * resolution halves only once the next stride-1 conv runs.
 */
std::vector<double>
convMacs(const std::vector<std::string> &labels, int batch, int hw)
{
    static const std::regex re(
        R"(Conv2d\((\d+)->(\d+), k=(\d+), s=(\d+), p=(\d+)\))");
    std::vector<double> macs(labels.size(), 0.0);
    int res = hw, pending = hw;
    for (size_t i = 0; i < labels.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(labels[i], m, re))
            continue;
        int in = std::stoi(m[1]), out = std::stoi(m[2]);
        int k = std::stoi(m[3]), s = std::stoi(m[4]);
        if (s == 1)
            res = pending;
        int ores = (res + s - 1) / s;
        if (s > 1)
            pending = ores;
        macs[i] = static_cast<double>(batch) * out * in * k * k * ores * ores;
    }
    return macs;
}

/** Run @p fn @p reps times, each under span @p name; the median span
 * duration in ms. */
template <typename Fn>
double
timedMedianMs(Tracer *tr, const std::string &name, int reps, Fn fn)
{
    for (int i = 0; i < reps; ++i) {
        SpanScope s(tr, name.c_str());
        fn();
    }
    return median(spanMs(tr->spans(), name));
}

void
planProbe(Session &s, const std::vector<int> &input_shape, uint64_t seed,
          Tracer *tr, RunResult &r)
{
    RpsEngine &eng = s.engine();
    const int batch = 8;
    std::vector<int> pshape{batch};
    pshape.insert(pshape.end(), input_shape.begin(), input_shape.end());
    std::unique_ptr<serve::ExecutionPlan> plan;
    {
        SpanScope sp(tr, "serve.plan.compile");
        plan = s.network().compile(eng.set(), serve::PlanMode::Quantized,
                                   pshape);
    }
    Rng rng(deriveSeed(seed, "plan-input"));
    Tensor x = Tensor::uniform(pshape, rng, 0.0f, 1.0f);

    for (int b : eng.set().bits()) {
        eng.setPrecision(b);
        plan->run(x); // first run at a precision sizes its buffers
        std::string name = "serve.plan.run.b" + std::to_string(b);
        r.layer("serve.plan.fwd_ms.b" + std::to_string(b),
                timedMedianMs(tr, name, 9, [&] { plan->run(x); }), "ms");
    }

    eng.setPrecision(8);
    const int reps = 9;
    std::vector<std::string> labels;
    std::vector<std::vector<double>> step_us;
    for (int i = 0; i < reps; ++i) {
        std::vector<std::pair<std::string, double>> prof;
        {
            SpanScope sp(tr, "serve.plan.profileSteps");
            prof = plan->profileSteps(x, 1);
        }
        if (labels.empty()) {
            for (auto &p : prof)
                labels.push_back(p.first);
            step_us.resize(prof.size());
        }
        for (size_t j = 0; j < prof.size(); ++j)
            step_us[j].push_back(prof[j].second);
    }
    std::map<std::string, double> kind_us{
        {"conv_stem", 0}, {"conv3x3", 0}, {"conv1x1", 0}, {"actquant", 0},
        {"sbn_relu", 0},  {"residual", 0}, {"linear", 0}, {"gap", 0}};
    std::vector<double> macs = convMacs(labels, batch, input_shape[1]);
    double conv_macs = 0.0, conv_us = 0.0;
    bool first_conv = true;
    for (size_t j = 0; j < labels.size(); ++j) {
        double us = median(step_us[j]);
        std::string kind = stepKind(labels[j], first_conv);
        if (kind.rfind("conv", 0) == 0) {
            first_conv = false;
            conv_macs += macs[j];
            conv_us += us;
        }
        kind_us[kind] += us;
    }
    for (const auto &k : kind_us)
        if (k.first != "other")
            r.layer("serve.plan.step_us." + k.first, k.second, "us");
    double gops = conv_us > 0 ? 2.0 * conv_macs / (conv_us * 1e3) : 0.0;
    r.layer("serve.plan.conv_gops.b8", gops, "GOPS");
    r.info["serve.plan.conv_macs.b8"] = conv_macs;
    r.layer("serve.plan.arena_mb",
            static_cast<double>(plan->arenaBytes()) / 1e6, "MB");
}

void
executorProbe(Session &s, const serve::ServeConfig &scfg,
              const std::vector<int> &input_shape, int rows, uint64_t seed,
              Tracer *tr, RunResult &r)
{
    RpsEngine &eng = s.engine();
    std::unique_ptr<serve::BatchExecutor> ex;
    {
        SpanScope sp(tr, "serve.executor.compile");
        ex = std::make_unique<serve::BatchExecutor>(s.network(), eng,
                                                    input_shape, scfg);
    }
    rows = std::max(1, std::min(rows, ex->maxBatch()));
    Rng rng(deriveSeed(seed, "executor-input"));
    std::vector<int> shape{rows};
    shape.insert(shape.end(), input_shape.begin(), input_shape.end());
    Tensor x = Tensor::uniform(shape, rng, 0.0f, 1.0f);
    std::vector<float> y(static_cast<size_t>(rows) * ex->outCols());
    std::vector<const float *> src;
    std::vector<float *> dst;
    for (int i = 0; i < rows; ++i) {
        src.push_back(x.data() + static_cast<size_t>(i) * ex->rowElems());
        dst.push_back(y.data() + static_cast<size_t>(i) * ex->outCols());
    }
    const std::vector<int> &bits = eng.set().bits();
    for (int b : bits) { // size every precision's buffers first
        ex->installPrecision(b);
        ex->execute(src.data(), dst.data(), rows);
    }

    // Replay: one uniform draw per batch, as the server does; the
    // install (between warm columns) and the execute are timed apart.
    uint64_t t_end = nowNs() + 1000000000ULL; // at most ~1 s
    for (int i = 0; i < 200 && (i < 10 || nowNs() < t_end); ++i) {
        int b = bits[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int>(bits.size()) - 1))];
        {
            SpanScope sp(tr, "quant.engine.install");
            ex->installPrecision(b);
        }
        SpanScope sp(tr, "serve.executor.execute");
        ex->execute(src.data(), dst.data(), rows);
    }
    std::vector<Span> spans = tr->spans();
    r.layer("serve.executor.batch_ms_p50",
            median(spanMs(spans, "serve.executor.execute")), "ms");
    r.layer("quant.engine.install_us_p50",
            1e3 * median(spanMs(spans, "quant.engine.install")), "us");
    r.info["serve.executor.replay_rows"] = rows;
}

void
checkpointProbe(const std::string &artifact, Tracer *tr, RunResult &r)
{
    r.layer("io.checkpoint.load_ms",
            timedMedianMs(tr, "io.checkpoint.read", 3, [&] {
                checkpoint::Checkpoint::read(artifact);
            }),
            "ms");
    SpanScope sp(tr, "io.section_reader.open");
    io::SectionReader reader(artifact);
    r.layer("io.checkpoint.bytes_mb",
            static_cast<double>(reader.fileSize()) / 1e6, "MB");
}

/** Median GOPS of @p fn (one GEMM of @p ops operations) over 5 spans
 * named @p span, each of enough calls to last ~10 ms. */
template <typename Fn>
double
gemmRate(Tracer *tr, const std::string &span, double ops, Fn fn)
{
    fn(); // warm caches and the pool
    uint64_t t0 = nowNs();
    fn();
    double one = std::max(1e-7, static_cast<double>(nowNs() - t0) / 1e9);
    int calls = std::max(1, static_cast<int>(0.01 / one));
    double ms = timedMedianMs(tr, span, 5, [&] {
        for (int c = 0; c < calls; ++c)
            fn();
    });
    return ops * calls / (ms * 1e6);
}

} // namespace

void
servingProbes(Session &s, const serve::ServeConfig &scfg,
              const std::vector<int> &input_shape, int replay_rows,
              const std::string &artifact, uint64_t seed, Tracer *tr,
              RunResult &r)
{
    executorProbe(s, scfg, input_shape, replay_rows, seed, tr, r);
    planProbe(s, input_shape, seed, tr, r);
    checkpointProbe(artifact, tr, r);
}

void
kernelProbes(uint64_t seed, Tracer *tr, RunResult &r)
{
    struct Shape
    {
        int m, n, k;
        std::string name;
    };
    // Per-image conv GEMMs of the ResNet-50 stand-in at 32x32: one
    // shape per stage (out channels x output pixels x in*k*k).
    const std::vector<Shape> igemm_shapes{{16, 1024, 144, "m16n1024k144"},
                                          {32, 256, 288, "m32n256k288"},
                                          {64, 64, 576, "m64n64k576"},
                                          {128, 16, 1152, "m128n16k1152"}};
    Rng rng(deriveSeed(seed, "kernel-inputs"));
    auto run_igemm = [&](const Shape &s, int bits) {
        int wmax = (1 << (bits - 1)) - 1, amax = (1 << bits) - 1;
        std::vector<int32_t> codes(static_cast<size_t>(s.m) * s.k);
        for (int32_t &c : codes)
            c = rng.uniformInt(-wmax, wmax);
        gemm::PackedIntWeights pw;
        gemm::packWeights(codes.data(), s.m, s.k, bits, pw);
        std::vector<int64_t> c(static_cast<size_t>(s.m) * s.n);
        size_t nk = static_cast<size_t>(s.n) * s.k;
        double ops = 2.0 * s.m * s.n * s.k;
        double act_bytes = bits <= 8 ? 1.0 : 2.0;
        std::string key = "b" + std::to_string(bits) + "." + s.name;
        r.info["tensor.igemm.bytes_kb." + key] =
            (static_cast<double>(pw.bytes()) + act_bytes * nk +
             8.0 * c.size()) / 1e3;
        if (bits <= 8) {
            std::vector<uint8_t> b(nk);
            for (uint8_t &v : b)
                v = static_cast<uint8_t>(rng.uniformInt(0, amax));
            return gemmRate(tr, "tensor.igemm.packed." + key, ops, [&] {
                gemm::igemmPackedTransB(pw, s.n, b.data(), s.k, c.data(),
                                        s.n, bits);
            });
        }
        std::vector<uint16_t> b(nk);
        for (uint16_t &v : b)
            v = static_cast<uint16_t>(rng.uniformInt(0, amax));
        return gemmRate(tr, "tensor.igemm.packed." + key, ops, [&] {
            gemm::igemmPackedTransB(pw, s.n, b.data(), s.k, c.data(), s.n,
                                    bits);
        });
    };
    for (const Shape &s : igemm_shapes)
        for (int bits : {4, 8, 16})
            r.layer("tensor.igemm.gops.b" + std::to_string(bits) + "." +
                        s.name,
                    run_igemm(s, bits), "GOPS");
    r.layer("tensor.igemm.gops.b8.sq256",
            run_igemm({256, 256, 256, "sq256"}, 8), "GOPS");

    // Per-image float conv GEMMs of the preact_mini training forward
    // at 8x8 (the shapes Conv2d hands to sgemm in rps_train).
    const std::vector<Shape> sgemm_shapes{{16, 64, 144, "m16n64k144"},
                                          {32, 16, 288, "m32n16k288"},
                                          {64, 4, 576, "m64n4k576"}};
    for (const Shape &s : sgemm_shapes) {
        Tensor a = Tensor::uniform({s.m, s.k}, rng, -1.0f, 1.0f);
        Tensor b = Tensor::uniform({s.n, s.k}, rng, -1.0f, 1.0f);
        Tensor c = Tensor::zeros({s.m, s.n});
        r.layer("tensor.sgemm.gflops." + s.name,
                gemmRate(tr, "tensor.sgemm." + s.name, 2.0 * s.m * s.n * s.k,
                         [&] {
                             gemm::sgemm(false, true, s.m, s.n, s.k,
                                         a.data(), s.k, b.data(), s.k,
                                         c.data(), s.n);
                         }),
                "GFLOPS");
    }
}

void
traceMetrics(const Tracer &tr, const Options &o, RunResult &r)
{
    std::vector<Span> spans = tr.spans();
    double cov = selfCoverage(spans);
    r.layer("trace.self_coverage", cov, "frac");
    r.layer("trace.spans", static_cast<double>(spans.size()), "count");
    if (std::fabs(cov - 1.0) > 0.01)
        r.fail("span self times miss the traced wall time by more than 1%");
    std::map<std::string, double> self = selfMsByLayer(spans);
    for (const char *layer :
         {"serve", "quant", "tensor", "io", "nn", "adversarial", "bench"})
        r.layer(std::string("trace.self_ms.") + layer, self[layer], "ms");
    std::string path = o.outDir + "/trace-" + o.workload + "-" +
                       std::to_string(o.seed) + ".json";
    if (!tr.writeChrome(path))
        r.fail("could not write " + path);
}

} // namespace perfbench
