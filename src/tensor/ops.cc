/**
 * @file
 * Implementation of tensor operations.
 *
 * Element-wise ops run through ThreadPool::parallelFor above a size
 * threshold (disjoint writes, so results are identical for any thread
 * count); the matmul variants dispatch to the gemm backend (blocked +
 * parallel by default, TWOINONE_BACKEND=naive for the reference
 * path). Summing reductions stay serial: their double accumulators
 * depend on summation order and they are cheap O(n) passes. Max
 * reductions (maxAbs/maxVal) are exact under any combination order,
 * so they parallelize over fixed-size chunks whose boundaries do not
 * depend on the thread count (serial under the naive backend).
 */

#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hh"
#include "tensor/gemm.hh"

namespace twoinone {
namespace ops {

namespace {

void
checkSameShape(const Tensor &a, const Tensor &b, const char *what)
{
    TWOINONE_ASSERT(a.sameShape(b), what, ": shape mismatch");
}

// Minimum elements per chunk for element-wise parallelism; ranges at
// or below this run inline (the parallelFor grain cutoff).
constexpr int64_t kElemGrain = 1 << 15;

/** Run f(lo, hi) over [0, n) chunks, parallel for large tensors. */
template <typename F>
void
parallelElems(size_t n, F &&f)
{
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(n), kElemGrain,
        [&f](int64_t lo, int64_t hi) {
            f(static_cast<size_t>(lo), static_cast<size_t>(hi));
        });
}

/**
 * max over f(p[i]) for i in [b, e), starting from +0, by the rule
 * m < v ? v : m (std::max's): NaN never wins and -0 never replaces
 * +0. kLanes independent accumulators keep the loop in vector
 * registers and are folded by the same rule. The rule picks the same
 * bits in any order — the largest non-NaN value, +0 when none is
 * positive — so the lanes leave the result bit-identical.
 */
template <typename F>
float
maxRange(const float *p, int64_t b, int64_t e, F &f)
{
    constexpr int kLanes = 32;
    float lane[kLanes] = {};
    int64_t i = b;
    for (; i + kLanes <= e; i += kLanes) {
        for (int j = 0; j < kLanes; ++j) {
            float v = f(p[i + j]);
            lane[j] = lane[j] < v ? v : lane[j];
        }
    }
    float m = 0.0f;
    for (; i < e; ++i) {
        float v = f(p[i]);
        m = m < v ? v : m;
    }
    for (float v : lane)
        m = m < v ? v : m;
    return m;
}

/**
 * max over f(a[i]) starting from 0, reduced over fixed
 * kElemGrain-sized chunks whose boundaries do not depend on the
 * thread count. Float max is exact under any combination order, so
 * the result is bit-identical to one serial pass, which the naive
 * backend runs.
 */
template <typename F>
float
maxReduce(const Tensor &a, F &&f)
{
    const int64_t n = static_cast<int64_t>(a.size());
    const float *p = a.data();
    if (gemm::activeBackend() == gemm::Backend::Naive || n <= kElemGrain)
        return maxRange(p, 0, n, f);
    int64_t nchunks = (n + kElemGrain - 1) / kElemGrain;
    std::vector<float> partial(static_cast<size_t>(nchunks), 0.0f);
    ThreadPool::global().parallelFor(
        0, nchunks, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t c = lo; c < hi; ++c) {
                int64_t b = c * kElemGrain;
                partial[static_cast<size_t>(c)] =
                    maxRange(p, b, std::min(n, b + kElemGrain), f);
            }
        });
    float m = 0.0f;
    for (float v : partial)
        m = std::max(m, v);
    return m;
}

} // namespace

void
gatedParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)> &fn)
{
    if (gemm::activeBackend() != gemm::Backend::Naive)
        ThreadPool::global().parallelFor(0, n, grain, fn);
    else
        fn(0, n);
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    Tensor out;
    addInto(a, b, out);
    return out;
}

void
addInto(const Tensor &a, const Tensor &b, Tensor &out)
{
    checkSameShape(a, b, "add");
    out.ensure(a.shape());
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            out[i] = a[i] + b[i];
    });
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "sub");
    Tensor out(a.shape());
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            out[i] = a[i] - b[i];
    });
    return out;
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "mul");
    Tensor out(a.shape());
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            out[i] = a[i] * b[i];
    });
    return out;
}

Tensor
addScalar(const Tensor &a, float s)
{
    Tensor out(a.shape());
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            out[i] = a[i] + s;
    });
    return out;
}

Tensor
mulScalar(const Tensor &a, float s)
{
    Tensor out(a.shape());
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            out[i] = a[i] * s;
    });
    return out;
}

Tensor &
addInPlace(Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "addInPlace");
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            a[i] += b[i];
    });
    return a;
}

Tensor &
subInPlace(Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "subInPlace");
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            a[i] -= b[i];
    });
    return a;
}

Tensor &
axpyInPlace(Tensor &a, float s, const Tensor &b)
{
    checkSameShape(a, b, "axpyInPlace");
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            a[i] += s * b[i];
    });
    return a;
}

Tensor &
mulScalarInPlace(Tensor &a, float s)
{
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            a[i] *= s;
    });
    return a;
}

Tensor &
clampInPlace(Tensor &a, float lo_v, float hi_v)
{
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            a[i] = std::min(hi_v, std::max(lo_v, a[i]));
    });
    return a;
}

Tensor
sign(const Tensor &a)
{
    Tensor out(a.shape());
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            out[i] = (a[i] > 0.0f) ? 1.0f : (a[i] < 0.0f ? -1.0f : 0.0f);
    });
    return out;
}

Tensor
abs(const Tensor &a)
{
    Tensor out(a.shape());
    parallelElems(a.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            out[i] = std::fabs(a[i]);
    });
    return out;
}

Tensor
clamp(const Tensor &a, float lo, float hi)
{
    Tensor out = a;
    clampInPlace(out, lo, hi);
    return out;
}

float
sum(const Tensor &a)
{
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        s += a[i];
    return static_cast<float>(s);
}

float
mean(const Tensor &a)
{
    if (a.size() == 0)
        return 0.0f;
    return sum(a) / static_cast<float>(a.size());
}

float
maxAbs(const Tensor &a)
{
    return maxReduce(a, [](float v) { return std::fabs(v); });
}

float
maxVal(const Tensor &a)
{
    return maxReduce(a, [](float v) { return v; });
}

int
argmaxRow(const Tensor &logits, int row)
{
    TWOINONE_ASSERT(logits.ndim() == 2, "argmaxRow expects rank-2 logits");
    int cols = logits.dim(1);
    int best = 0;
    float best_v = logits.at2(row, 0);
    for (int j = 1; j < cols; ++j) {
        float v = logits.at2(row, j);
        if (v > best_v) {
            best_v = v;
            best = j;
        }
    }
    return best;
}

std::vector<int>
argmaxRows(const Tensor &logits)
{
    std::vector<int> preds(static_cast<size_t>(logits.dim(0)));
    for (int i = 0; i < logits.dim(0); ++i)
        preds[static_cast<size_t>(i)] = argmaxRow(logits, i);
    return preds;
}

float
linfDistance(const Tensor &a, const Tensor &b)
{
    TWOINONE_ASSERT(a.sameShape(b), "linfDistance shape mismatch");
    float m = 0.0f;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

float
l2Norm(const Tensor &a)
{
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        s += static_cast<double>(a[i]) * a[i];
    return static_cast<float>(std::sqrt(s));
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    TWOINONE_ASSERT(a.ndim() == 2 && b.ndim() == 2, "matmul rank");
    TWOINONE_ASSERT(a.dim(1) == b.dim(0), "matmul inner-dim mismatch");
    int m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    gemm::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(),
                n);
    return c;
}

Tensor
matmulTransposeB(const Tensor &a, const Tensor &b)
{
    Tensor c;
    matmulTransposeBInto(a, b, c);
    return c;
}

void
matmulTransposeBInto(const Tensor &a, const Tensor &b, Tensor &c)
{
    TWOINONE_ASSERT(a.ndim() == 2 && b.ndim() == 2, "matmulTB rank");
    TWOINONE_ASSERT(a.dim(1) == b.dim(1), "matmulTB inner-dim mismatch");
    int m = a.dim(0), k = a.dim(1), n = b.dim(0);
    c.ensure({m, n});
    gemm::sgemm(false, true, m, n, k, a.data(), k, b.data(), k, c.data(),
                n);
}

Tensor
matmulTransposeA(const Tensor &a, const Tensor &b)
{
    TWOINONE_ASSERT(a.ndim() == 2 && b.ndim() == 2, "matmulTA rank");
    TWOINONE_ASSERT(a.dim(0) == b.dim(0), "matmulTA inner-dim mismatch");
    int m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({k, n});
    // Output is [k, n] = A^T [k, m] * B [m, n]: the reduction runs
    // over m, and A is stored [m, k] so lda is the output row count.
    gemm::sgemm(true, false, k, n, m, a.data(), k, b.data(), n, c.data(),
                n);
    return c;
}

void
projectLinf(const Tensor &center, float eps, Tensor &x)
{
    TWOINONE_ASSERT(center.sameShape(x), "projectLinf shape mismatch");
    parallelElems(x.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            float lo_v = center[i] - eps;
            float hi_v = center[i] + eps;
            x[i] = std::min(hi_v, std::max(lo_v, x[i]));
        }
    });
}

} // namespace ops
} // namespace twoinone
