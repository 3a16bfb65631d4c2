/**
 * @file
 * Unit tests for the tensor substrate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace twoinone {
namespace {

TEST(Tensor, DefaultConstructedIsEmpty)
{
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.ndim(), 0);
    EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, ZeroFilledConstruction)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.ndim(), 2);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(1), 3);
    EXPECT_EQ(t.size(), 6u);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstruction)
{
    Tensor t({4}, 2.5f);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, OnesAndFull)
{
    Tensor a = Tensor::ones({3, 2});
    Tensor b = Tensor::full({3, 2}, -1.25f);
    EXPECT_EQ(a[5], 1.0f);
    EXPECT_EQ(b[0], -1.25f);
}

TEST(Tensor, RandnIsSeededDeterministic)
{
    Rng r1(42), r2(42);
    Tensor a = Tensor::randn({32}, r1);
    Tensor b = Tensor::randn({32}, r2);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(Tensor, UniformRange)
{
    Rng rng(7);
    Tensor t = Tensor::uniform({256}, rng, -0.5f, 0.5f);
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], -0.5f);
        EXPECT_LT(t[i], 0.5f);
    }
}

TEST(Tensor, At2Indexing)
{
    Tensor t({2, 3});
    t.at2(1, 2) = 5.0f;
    EXPECT_EQ(t[5], 5.0f);
    EXPECT_EQ(t.at2(1, 2), 5.0f);
}

TEST(Tensor, At4IndexingRowMajorNchw)
{
    Tensor t({2, 3, 4, 5});
    t.at4(1, 2, 3, 4) = 9.0f;
    // ((1*3+2)*4+3)*5+4 = 119
    EXPECT_EQ(t[119], 9.0f);
}

TEST(Tensor, SameShape)
{
    Tensor a({2, 3}), b({2, 3}), c({3, 2});
    EXPECT_TRUE(a.sameShape(b));
    EXPECT_FALSE(a.sameShape(c));
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 3});
    for (size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(i);
    Tensor r = t.reshape({3, 2});
    EXPECT_EQ(r.ndim(), 2);
    EXPECT_EQ(r.dim(0), 3);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(r[i], t[i]);
}

TEST(Tensor, Slice0AndSetSlice0RoundTrip)
{
    Tensor t({4, 2, 2, 2});
    for (size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(i);
    Tensor s = t.slice0(1, 2);
    EXPECT_EQ(s.dim(0), 2);
    EXPECT_EQ(s[0], t[8]); // element (1,0,0,0)

    Tensor u({4, 2, 2, 2});
    u.setSlice0(1, s);
    for (int i = 8; i < 24; ++i)
        EXPECT_EQ(u[static_cast<size_t>(i)],
                  t[static_cast<size_t>(i)]);
}

TEST(Tensor, FillOverwrites)
{
    Tensor t({3}, 1.0f);
    t.fill(-2.0f);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], -2.0f);
}

TEST(Ops, AddSubMulElementwise)
{
    Tensor a({3}), b({3});
    a[0] = 1; a[1] = 2; a[2] = 3;
    b[0] = 4; b[1] = -1; b[2] = 0.5;
    Tensor s = ops::add(a, b);
    Tensor d = ops::sub(a, b);
    Tensor m = ops::mul(a, b);
    EXPECT_FLOAT_EQ(s[0], 5.0f);
    EXPECT_FLOAT_EQ(d[1], 3.0f);
    EXPECT_FLOAT_EQ(m[2], 1.5f);
}

TEST(Ops, ScalarOps)
{
    Tensor a({2}, 3.0f);
    EXPECT_FLOAT_EQ(ops::addScalar(a, 1.0f)[0], 4.0f);
    EXPECT_FLOAT_EQ(ops::mulScalar(a, -2.0f)[1], -6.0f);
}

TEST(Ops, InPlaceOps)
{
    Tensor a({2}, 1.0f), b({2}, 2.0f);
    ops::addInPlace(a, b);
    EXPECT_FLOAT_EQ(a[0], 3.0f);
    ops::subInPlace(a, b);
    EXPECT_FLOAT_EQ(a[0], 1.0f);
    ops::axpyInPlace(a, 0.5f, b);
    EXPECT_FLOAT_EQ(a[0], 2.0f);
    ops::mulScalarInPlace(a, 2.0f);
    EXPECT_FLOAT_EQ(a[0], 4.0f);
}

TEST(Ops, ClampInPlace)
{
    Tensor a({3});
    a[0] = -2.0f; a[1] = 0.5f; a[2] = 3.0f;
    ops::clampInPlace(a, 0.0f, 1.0f);
    EXPECT_FLOAT_EQ(a[0], 0.0f);
    EXPECT_FLOAT_EQ(a[1], 0.5f);
    EXPECT_FLOAT_EQ(a[2], 1.0f);
}

TEST(Ops, SignValues)
{
    Tensor a({3});
    a[0] = -0.1f; a[1] = 0.0f; a[2] = 7.0f;
    Tensor s = ops::sign(a);
    EXPECT_FLOAT_EQ(s[0], -1.0f);
    EXPECT_FLOAT_EQ(s[1], 0.0f);
    EXPECT_FLOAT_EQ(s[2], 1.0f);
}

TEST(Ops, Reductions)
{
    Tensor a({4});
    a[0] = 1; a[1] = -2; a[2] = 3; a[3] = -4;
    EXPECT_FLOAT_EQ(ops::sum(a), -2.0f);
    EXPECT_FLOAT_EQ(ops::mean(a), -0.5f);
    EXPECT_FLOAT_EQ(ops::maxAbs(a), 4.0f);
    EXPECT_FLOAT_EQ(ops::l2Norm(a),
                    std::sqrt(1.0f + 4.0f + 9.0f + 16.0f));
}

uint32_t
floatBits(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** The rule maxAbs / maxVal must reproduce bit-for-bit: from +0,
 * m < v ? v : m, one element at a time. */
float
serialMax(const Tensor &a, bool abs)
{
    float m = 0.0f;
    for (size_t i = 0; i < a.size(); ++i) {
        float v = abs ? std::fabs(a[i]) : a[i];
        m = m < v ? v : m;
    }
    return m;
}

/** maxAbs / maxVal over NaN, +-0, +-inf, all-negative and empty
 * inputs, at sizes below, at and above the 32K-element parallel chunk
 * (and off the vector lane count): NaN never wins, the floor is +0,
 * and every result is bit-identical to the serial rule. */
TEST(Ops, MaxReductionsSpecialValues)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Tensor empty;
    EXPECT_EQ(floatBits(ops::maxAbs(empty)), 0u);
    EXPECT_EQ(floatBits(ops::maxVal(empty)), 0u);

    const int kChunk = 1 << 15;
    for (int n : {1, 5, 31, 32, 33, 100, kChunk - 1, kChunk, kChunk + 1,
                  3 * kChunk + 45}) {
        Rng rng(static_cast<uint64_t>(n));
        const Tensor base = Tensor::uniform({n}, rng, -1.0f, 1.0f);
        const size_t last = static_cast<size_t>(n) - 1;
        auto check = [&](const char *what, const Tensor &t) {
            SCOPED_TRACE(std::string(what) + " n=" + std::to_string(n));
            EXPECT_EQ(floatBits(ops::maxAbs(t)),
                      floatBits(serialMax(t, true)));
            EXPECT_EQ(floatBits(ops::maxVal(t)),
                      floatBits(serialMax(t, false)));
        };
        check("uniform", base);

        Tensor neg = base;
        for (size_t i = 0; i < neg.size(); ++i)
            neg[i] = -std::fabs(neg[i]) - 0.5f;
        check("all negative", neg);
        EXPECT_EQ(floatBits(ops::maxVal(neg)), 0u) << "n=" << n;

        Tensor zeros(base.shape());
        zeros.fill(-0.0f);
        zeros[last] = 0.0f;
        zeros[0] = -0.0f;
        check("signed zeros", zeros);
        EXPECT_EQ(floatBits(ops::maxAbs(zeros)), 0u) << "n=" << n;
        EXPECT_EQ(floatBits(ops::maxVal(zeros)), 0u) << "n=" << n;

        Tensor nans = base;
        nans[0] = nan;
        nans[last / 2] = nan;
        nans[last] = nan;
        check("NaN", nans);
        Tensor dense_nans = base;
        for (size_t i = 0; i < dense_nans.size(); i += 3)
            dense_nans[i] = nan;
        check("every third NaN", dense_nans);
        Tensor all_nan(base.shape());
        all_nan.fill(nan);
        EXPECT_EQ(floatBits(ops::maxAbs(all_nan)), 0u) << "n=" << n;
        EXPECT_EQ(floatBits(ops::maxVal(all_nan)), 0u) << "n=" << n;

        Tensor pinf = base;
        pinf[last] = inf;
        check("+inf", pinf);
        EXPECT_EQ(ops::maxVal(pinf), inf) << "n=" << n;
        Tensor ninf = base;
        ninf[last / 3] = -inf;
        check("-inf", ninf);
        EXPECT_EQ(ops::maxAbs(ninf), inf) << "n=" << n;

        Tensor tail = base;
        tail[last] = 2.0f;
        check("peak at the tail", tail);
        EXPECT_EQ(ops::maxVal(tail), 2.0f) << "n=" << n;
    }
}

TEST(Ops, ArgmaxRow)
{
    Tensor logits({2, 3});
    logits.at2(0, 0) = 0.1f; logits.at2(0, 1) = 0.9f;
    logits.at2(0, 2) = 0.3f;
    logits.at2(1, 0) = 2.0f; logits.at2(1, 1) = -1.0f;
    logits.at2(1, 2) = 1.0f;
    EXPECT_EQ(ops::argmaxRow(logits, 0), 1);
    EXPECT_EQ(ops::argmaxRow(logits, 1), 0);
}

TEST(Ops, LinfDistance)
{
    Tensor a({3}, 0.0f), b({3}, 0.0f);
    b[1] = 0.25f;
    b[2] = -0.5f;
    EXPECT_FLOAT_EQ(ops::linfDistance(a, b), 0.5f);
}

TEST(Ops, MatmulAgainstHandComputed)
{
    Tensor a({2, 3}), b({3, 2});
    // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
    for (int i = 0; i < 6; ++i)
        a[static_cast<size_t>(i)] = static_cast<float>(i + 1);
    for (int i = 0; i < 6; ++i)
        b[static_cast<size_t>(i)] = static_cast<float>(i + 7);
    Tensor c = ops::matmul(a, b);
    EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(Ops, MatmulTransposeVariantsAgreeWithMatmul)
{
    Rng rng(3);
    Tensor a = Tensor::randn({4, 5}, rng);
    Tensor b = Tensor::randn({5, 6}, rng);
    Tensor c_ref = ops::matmul(a, b);

    // matmulTransposeB(a, b^T) == a*b.
    Tensor bt({6, 5});
    for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 6; ++j)
            bt.at2(j, i) = b.at2(i, j);
    Tensor c1 = ops::matmulTransposeB(a, bt);
    for (size_t i = 0; i < c_ref.size(); ++i)
        EXPECT_NEAR(c1[i], c_ref[i], 1e-4f);

    // matmulTransposeA(a^T, b) == a*b.
    Tensor at({5, 4});
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 5; ++j)
            at.at2(j, i) = a.at2(i, j);
    Tensor c2 = ops::matmulTransposeA(at, b);
    for (size_t i = 0; i < c_ref.size(); ++i)
        EXPECT_NEAR(c2[i], c_ref[i], 1e-4f);
}

TEST(Ops, ProjectLinfStaysInBall)
{
    Rng rng(5);
    Tensor center = Tensor::randn({64}, rng);
    Tensor x = Tensor::randn({64}, rng, 3.0f);
    ops::projectLinf(center, 0.3f, x);
    EXPECT_LE(ops::linfDistance(center, x), 0.3f + 1e-6f);
}

TEST(Ops, ProjectLinfIdempotentInsideBall)
{
    Tensor center({4}, 0.0f);
    Tensor x({4});
    x[0] = 0.1f; x[1] = -0.2f; x[2] = 0.0f; x[3] = 0.25f;
    Tensor before = x;
    ops::projectLinf(center, 0.3f, x);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_FLOAT_EQ(x[i], before[i]);
}

TEST(Rng, ForkProducesDifferentStreams)
{
    Rng parent(1);
    Rng c1 = parent.fork();
    Rng c2 = parent.fork();
    EXPECT_NE(c1.uniform(), c2.uniform());
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        int v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
    }
}

} // namespace
} // namespace twoinone
