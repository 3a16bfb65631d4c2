/**
 * @file
 * Load generators over serve::Server and the served-answer check.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <numeric>
#include <thread>

#include "bench.hh"
#include "stats.hh"

namespace perfbench {

using namespace twoinone;

namespace {

/** Synthetic trace track holding the reply intervals. */
constexpr int kReplyTrack = 1000;

bool
allFinite(const Tensor &t)
{
    for (size_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t[i]))
            return false;
    return true;
}

/** Sleep to within kSpinNs of @p due_ns, then spin: a sleeping vCPU
 * can take milliseconds to be woken on a shared host, which would
 * delay the request past its due time. The generator owns the core
 * the pool leaves free, so spinning costs the server nothing. */
void
waitUntil(uint64_t due_ns)
{
    constexpr uint64_t kSpinNs = 300000;
    uint64_t now = nowNs();
    if (due_ns > now + kSpinNs)
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due_ns - kSpinNs)));
    while (nowNs() < due_ns) {
    }
}

} // namespace

std::vector<Tensor>
requestPool(uint64_t seed, size_t n, int rows_lo, int rows_hi,
            const std::vector<int> &shape)
{
    Rng rng(seed);
    std::vector<Tensor> pool;
    pool.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        std::vector<int> s{rng.uniformInt(rows_lo, rows_hi)};
        s.insert(s.end(), shape.begin(), shape.end());
        pool.push_back(Tensor::uniform(s, rng, 0.0f, 1.0f));
    }
    return pool;
}

PhaseResult
openLoop(serve::Server &srv, int tenant, const std::vector<Tensor> &pool,
         double rows_per_s, double seconds, uint64_t arrival_seed,
         Tracer *tr)
{
    double mean_rows = 0.0;
    for (const Tensor &t : pool)
        mean_rows += t.dim(0);
    mean_rows /= static_cast<double>(pool.size());
    std::vector<double> due =
        poissonArrivals(arrival_seed, rows_per_s / mean_rows, seconds);

    PhaseResult ph;
    size_t n = due.size();
    std::vector<std::future<serve::Reply>> futs(n);
    std::vector<uint64_t> due_ns(n), submitted_ns(n);
    ph.lateMs.reserve(n);
    uint64_t start = nowNs() + 1000000; // 1 ms lead-in
    {
        SpanScope window(tr, "bench.open_loop");
        for (size_t i = 0; i < n; ++i) {
            due_ns[i] = start + static_cast<uint64_t>(due[i] * 1e9);
            {
                SpanScope s(tr, "bench.wait");
                waitUntil(due_ns[i]);
            }
            uint64_t t0 = nowNs();
            ph.lateMs.push_back(static_cast<double>(t0 - std::min(t0, due_ns[i])) / 1e6);
            try {
                SpanScope s(tr, "serve.server.submit", i + 1);
                futs[i] = srv.submit(tenant, pool[i % pool.size()]);
            } catch (const serve::ServeError &) {
                ++ph.failed; // shed or rejected at admission
            }
            submitted_ns[i] = nowNs();
        }
    }
    srv.flush();
    uint64_t end = nowNs();
    ph.attempted = n;
    ph.wallS = static_cast<double>(end - start) / 1e9;
    ph.drainMs = n ? static_cast<double>(end - std::min(end, due_ns.back())) / 1e6
                   : 0.0;

    ph.latMs.reserve(n);
    ph.replies.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (!futs[i].valid())
            continue;
        try {
            serve::Reply rep = futs[i].get();
            if (!allFinite(rep.y)) {
                ++ph.failed;
                continue;
            }
            // Reply::latencyUs runs from admission inside submit();
            // adding the submit-return offset from the due time never
            // undercounts.
            ph.latMs.push_back(
                static_cast<double>(submitted_ns[i] - due_ns[i]) / 1e6 +
                rep.latencyUs / 1e3);
            ph.replyMs.push_back(rep.latencyUs / 1e3);
            ph.atS.push_back(due[i]);
            ph.rowsOf.push_back(rep.y.dim(0));
            if (tr)
                tr->add("serve.server.reply", submitted_ns[i],
                        submitted_ns[i] +
                            static_cast<uint64_t>(rep.latencyUs * 1e3),
                        i + 1, kReplyTrack);
            ph.rows += static_cast<uint64_t>(rep.y.dim(0));
            ph.poolIdx.push_back(i % pool.size());
            ph.replies.push_back(std::move(rep));
        } catch (const serve::ServeError &) {
            ++ph.failed; // shed past its deadline or at shutdown
        }
    }
    return ph;
}

PhaseResult
closedLoop(serve::Server &srv, int tenant, const std::vector<Tensor> &pool,
           int clients, double seconds, Tracer *tr)
{
    std::vector<PhaseResult> per(static_cast<size_t>(clients));
    std::atomic<uint64_t> next_rid{1};
    uint64_t start = nowNs();
    uint64_t stop_at = start + static_cast<uint64_t>(seconds * 1e9);

    auto client = [&](int c) {
        PhaseResult &ph = per[static_cast<size_t>(c)];
        SpanScope window(tr, "bench.client");
        uint64_t prev_done = 0;
        for (size_t k = static_cast<size_t>(c); nowNs() < stop_at;
             k += static_cast<size_t>(clients)) {
            uint64_t rid = next_rid.fetch_add(1);
            size_t pi = k % pool.size();
            ++ph.attempted;
            uint64_t t0 = nowNs();
            // Lateness: this request was due when the previous reply
            // completed on the server clock.
            if (prev_done)
                ph.lateMs.push_back(
                    static_cast<double>(t0 - std::min(t0, prev_done)) / 1e6);
            prev_done = 0;
            std::future<serve::Reply> f;
            try {
                SpanScope s(tr, "serve.server.submit", rid);
                f = srv.submit(tenant, pool[pi]);
            } catch (const serve::ServeError &) {
                ++ph.failed;
                continue;
            }
            uint64_t t1 = nowNs();
            try {
                serve::Reply rep;
                {
                    SpanScope s(tr, "serve.server.reply_wait", rid);
                    rep = f.get();
                }
                uint64_t t2 = nowNs();
                prev_done = t1 + static_cast<uint64_t>(rep.latencyUs * 1e3);
                if (!allFinite(rep.y)) {
                    ++ph.failed;
                    continue;
                }
                ph.latMs.push_back(static_cast<double>(t2 - t0) / 1e6);
                ph.atS.push_back(static_cast<double>(t2 - start) / 1e9);
                ph.rowsOf.push_back(rep.y.dim(0));
                ph.replyMs.push_back(rep.latencyUs / 1e3);
                ph.rows += static_cast<uint64_t>(rep.y.dim(0));
                ph.poolIdx.push_back(pi);
                ph.replies.push_back(std::move(rep));
            } catch (const serve::ServeError &) {
                ++ph.failed;
            }
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back(client, c);
    for (std::thread &t : threads)
        t.join();
    srv.flush();

    PhaseResult all;
    all.wallS = secondsSince(start);
    for (PhaseResult &ph : per) {
        all.attempted += ph.attempted;
        all.failed += ph.failed;
        all.rows += ph.rows;
        auto append = [](auto &dst, auto &src) {
            dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                       std::make_move_iterator(src.end()));
        };
        append(all.latMs, ph.latMs);
        append(all.atS, ph.atS);
        append(all.rowsOf, ph.rowsOf);
        append(all.lateMs, ph.lateMs);
        append(all.replyMs, ph.replyMs);
        append(all.poolIdx, ph.poolIdx);
        append(all.replies, ph.replies);
    }
    return all;
}

uint64_t
verifyReplies(RpsEngine &engine, const std::vector<Tensor> &pool,
              const PhaseResult &ph, size_t sample, uint64_t seed)
{
    std::vector<size_t> idx(ph.replies.size());
    std::iota(idx.begin(), idx.end(), 0);
    if (idx.size() > sample) {
        Rng rng(seed);
        rng.shuffle(idx);
        idx.resize(sample);
    }
    uint64_t wrong = 0;
    for (size_t i : idx) {
        const serve::Reply &rep = ph.replies[i];
        Tensor ref = engine.forwardQuantizedAt(rep.precision,
                                               pool[ph.poolIdx[i]]);
        if (ref.shape() != rep.y.shape() ||
            std::memcmp(ref.data(), rep.y.data(),
                        ref.size() * sizeof(float)) != 0)
            ++wrong;
    }
    return wrong;
}

void
serverLayerMetrics(const PhaseResult &ph, const std::vector<Span> &spans,
                   const serve::ServeStats &before,
                   const serve::ServeStats &after,
                   const std::vector<int> &precision_trace,
                   const std::vector<int> &candidates, RunResult &r)
{
    std::vector<double> submit_us = spanMs(spans, "serve.server.submit");
    for (double &v : submit_us)
        v *= 1e3;
    r.layer("serve.server.submit_us_p50", quantile(submit_us, 0.5), "us");
    r.layer("serve.server.submit_us_p99", quantile(submit_us, 0.99), "us");
    r.layer("serve.server.reply_ms_p50", quantile(ph.replyMs, 0.5), "ms");
    r.layer("serve.server.reply_ms_p99", quantile(ph.replyMs, 0.99), "ms");
    double batches = static_cast<double>(after.batches - before.batches);
    double rows = static_cast<double>(after.rows - before.rows);
    r.layer("serve.server.batches", batches, "count");
    r.layer("serve.server.batch_rows_mean", batches > 0 ? rows / batches : 0.0,
            "rows");
    std::vector<uint64_t> hist;
    uint64_t outside = 0;
    double p = drawTest(precision_trace, candidates, hist, outside);
    for (size_t i = 0; i < candidates.size(); ++i)
        r.layer("serve.server.served.b" + std::to_string(candidates[i]),
                static_cast<double>(hist[i]), "count");
    r.layer("serve.server.draw_chi2_p", p, "p");
    r.layer("loadgen.late_ms_p99", quantile(ph.lateMs, 0.99), "ms");
    r.layer("loadgen.requests", static_cast<double>(ph.attempted), "count");
}

} // namespace perfbench
