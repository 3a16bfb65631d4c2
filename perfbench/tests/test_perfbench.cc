/**
 * @file
 * Unit tests of the benchmark's own arithmetic: quantiles, the SLO
 * ladder rule, the draw-uniformity test, span self times, and the
 * seed determinism of the arrival schedule and the generated inputs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "bench.hh"
#include "stats.hh"
#include "trace.hh"

using namespace perfbench;

TEST(Quantile, InterpolatesBetweenOrderStatistics)
{
    std::vector<double> v{5, 1, 4, 2, 3}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(quantile({10, 20}, 0.99), 19.9);
    EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Quantile, P99OfHundredOneIsTheHundredth)
{
    std::vector<double> v;
    for (int i = 0; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99.0);
}

TEST(Windowed, MedianOverSlicesIgnoresOneNoisySlice)
{
    // Ten 1 s slices; slice 3 holds a burst of slow samples.
    std::vector<double> t, v;
    for (int s = 0; s < 10; ++s)
        for (int i = 0; i < 100; ++i) {
            t.push_back(s + i / 100.0);
            v.push_back(s == 3 ? 50.0 : 1.0 + i / 100.0);
        }
    EXPECT_DOUBLE_EQ(windowedQuantile(t, v, 10.0, 10, 0.5), 1.495);
    EXPECT_NEAR(windowedQuantile(t, v, 10.0, 10, 0.99), 1.9801, 1e-12);
    // Samples outside [0, span) are ignored.
    t.push_back(10.5);
    v.push_back(1e9);
    EXPECT_NEAR(windowedQuantile(t, v, 10.0, 10, 0.99), 1.9801, 1e-12);
}

TEST(Windowed, RateFromFirstToLastEventOfEachSlice)
{
    // 4 rows every 0.01 s for 2 s: 400 rows/s in every slice.
    std::vector<double> t, w;
    for (int i = 0; i < 200; ++i) {
        t.push_back(0.005 + i * 0.01);
        w.push_back(4.0);
    }
    EXPECT_NEAR(windowedRate(t, w, 2.0, 4), 400.0, 1e-9);
    // A slice with a single event has no rate and is skipped.
    EXPECT_NEAR(windowedRate({0.1, 0.2, 1.5}, {1, 1, 1}, 2.0, 2), 10.0,
                1e-9);
}

TEST(SloLadder, HighestRungWhoseLowerRungsAllPass)
{
    std::vector<Rung> rungs{{1000, 2.0, 1.0, 0},
                            {3000, 4.0, 2.0, 0},
                            {2000, 3.0, 1.0, 0},
                            {4000, 9.0, 3.0, 0}};
    EXPECT_DOUBLE_EQ(sloRate(rungs, 5.0), 3000.0);
    EXPECT_DOUBLE_EQ(sloRate(rungs, 10.0), 4000.0);
    EXPECT_DOUBLE_EQ(sloRate(rungs, 1.5), 0.0);
}

TEST(SloLadder, FailuresAndGrowingBacklogMissTheLimit)
{
    // A fluke pass above a failing rung does not count.
    std::vector<Rung> rungs{{1000, 2.0, 1.0, 0},
                            {2000, 2.0, 1.0, 1},
                            {3000, 2.0, 1.0, 0}};
    EXPECT_DOUBLE_EQ(sloRate(rungs, 5.0), 1000.0);
    // A drain longer than the limit means the backlog grew.
    std::vector<Rung> backlog{{1000, 2.0, 1.0, 0}, {2000, 4.0, 50.0, 0}};
    EXPECT_DOUBLE_EQ(sloRate(backlog, 5.0), 1000.0);
}

TEST(ChiSquare, UniformAndSkewedCounts)
{
    EXPECT_NEAR(chiSquareUniformP({100, 100, 100, 100, 100, 100}), 1.0,
                1e-12);
    EXPECT_LT(chiSquareUniformP({600, 0, 0, 0, 0, 0}), 1e-12);
    // chi2 = 5 with 5 degrees of freedom: p = 0.41588.
    EXPECT_NEAR(gammaQ(2.5, 2.5), 0.415880, 1e-5);
    // chi2 = 20 with 5 degrees of freedom: p = 0.0012497.
    EXPECT_NEAR(gammaQ(2.5, 10.0), 0.0012497, 1e-6);
    // counts {110, 90}: chi2 = 2, 1 dof -> p = 0.157299.
    EXPECT_NEAR(chiSquareUniformP({110, 90}), 0.157299, 1e-5);
}

TEST(ChiSquare, DrawTestCountsOutsiders)
{
    std::vector<uint64_t> hist;
    uint64_t outside = 0;
    double p = drawTest({4, 8, 8, 4, 7}, {4, 8}, hist, outside);
    EXPECT_EQ(hist, (std::vector<uint64_t>{2, 2}));
    EXPECT_EQ(outside, 1u);
    EXPECT_NEAR(p, 1.0, 1e-12);
}

namespace {

Span
span(const char *name, uint64_t s, uint64_t e, int64_t parent)
{
    Span x;
    x.name = name;
    x.startNs = s;
    x.endNs = e;
    x.parent = parent;
    return x;
}

} // namespace

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    std::vector<Span> spans{span("bench.root", 0, 100, -1),
                            span("serve.a", 10, 30, 0),
                            span("quant.b", 20, 50, 0), // overlaps a
                            span("nn.c", 60, 70, 0),
                            span("tensor.d", 62, 66, 3)};
    std::vector<double> self = selfTimesNs(spans);
    EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
    EXPECT_DOUBLE_EQ(self[1], 20.0);
    EXPECT_DOUBLE_EQ(self[3], 6.0);
    EXPECT_DOUBLE_EQ(self[4], 4.0);
    std::map<std::string, double> by = selfMsByLayer(spans);
    EXPECT_DOUBLE_EQ(by["bench"], 50.0 / 1e6);
    EXPECT_DOUBLE_EQ(by["tensor"], 4.0 / 1e6);
}

TEST(SelfTime, CoverageIsOneForNestedSpansOnly)
{
    std::vector<Span> nested{span("bench.root", 0, 100, -1),
                             span("serve.a", 10, 30, 0),
                             span("serve.b", 40, 90, 0),
                             span("quant.c", 50, 60, 2),
                             span("bench.other", 200, 260, -1)};
    EXPECT_DOUBLE_EQ(selfCoverage(nested), 1.0);
    // Concurrent children count twice in their own self times.
    std::vector<Span> overlapped{span("bench.root", 0, 100, -1),
                                 span("serve.a", 0, 80, 0),
                                 span("serve.b", 0, 80, 0)};
    EXPECT_GT(selfCoverage(overlapped), 1.5);
}

TEST(SelfTime, TracerNestsSpansPerThread)
{
    Tracer tr;
    {
        SpanScope a(&tr, "bench.outer", 7);
        SpanScope b(&tr, "serve.inner", 7);
    }
    std::vector<Span> spans = tr.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].rid, 7u);
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_GE(spans[0].endNs, spans[1].endNs);
    EXPECT_DOUBLE_EQ(selfCoverage(spans), 1.0);
}

TEST(Determinism, ArrivalScheduleFollowsTheSeed)
{
    std::vector<double> a = poissonArrivals(42, 1000.0, 2.0);
    std::vector<double> b = poissonArrivals(42, 1000.0, 2.0);
    std::vector<double> c = poissonArrivals(43, 1000.0, 2.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_FALSE(a.empty());
    EXPECT_LT(a.back(), 2.0);
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]);
    // ~2000 arrivals; a Poisson count is within 5 sigma of its mean.
    EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 5 * std::sqrt(2000.0));
}

TEST(Determinism, InputsAndDerivedSeedsFollowTheSeed)
{
    EXPECT_EQ(deriveSeed(1, "inputs"), deriveSeed(1, "inputs"));
    EXPECT_NE(deriveSeed(1, "inputs"), deriveSeed(2, "inputs"));
    EXPECT_NE(deriveSeed(1, "inputs"), deriveSeed(1, "arrivals"));

    auto pool = [](uint64_t seed) {
        return requestPool(seed, 16, 1, 4, {3, 8, 8});
    };
    auto a = pool(5), b = pool(5), c = pool(6);
    ASSERT_EQ(a.size(), b.size());
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].shape(), b[i].shape());
        EXPECT_GE(a[i].dim(0), 1);
        EXPECT_LE(a[i].dim(0), 4);
        EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(),
                              a[i].size() * sizeof(float)),
                  0);
        differs = differs || a[i].shape() != c[i].shape() ||
                  std::memcmp(a[i].data(), c[i].data(),
                              a[i].size() * sizeof(float)) != 0;
    }
    EXPECT_TRUE(differs);
}
