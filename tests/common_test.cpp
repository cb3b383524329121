/**
 * @file
 * Unit tests for the common utilities: bit helpers, RNG determinism,
 * statistics, and histograms.
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/rng.h"
#include "common/stats.h"

namespace pimsim {
namespace {

// ---------- bits ----------

TEST(Bits, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(8), 0xffu);
    EXPECT_EQ(maskBits(64), ~std::uint64_t{0});
}

TEST(Bits, ExtractInsertRoundTrip)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t value = rng.next();
        const unsigned lo = static_cast<unsigned>(rng.nextBelow(56));
        const unsigned width = 1 + static_cast<unsigned>(rng.nextBelow(8));
        const std::uint64_t field = rng.next() & maskBits(width);
        const std::uint64_t inserted = insertBits(value, lo, width, field);
        EXPECT_EQ(extractBits(inserted, lo, width), field);
        // Bits outside the field are untouched.
        const std::uint64_t m = maskBits(width) << lo;
        EXPECT_EQ(inserted & ~m, value & ~m);
    }
}

TEST(Bits, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(65));
    EXPECT_EQ(exactLog2(1), 0u);
    EXPECT_EQ(exactLog2(4096), 12u);
    EXPECT_EQ(floorLog2(5), 2u);
    EXPECT_EQ(floorLog2(1ull << 40), 40u);
}

TEST(Bits, RoundUpDivCeil)
{
    EXPECT_EQ(roundUp(0, 32), 0u);
    EXPECT_EQ(roundUp(1, 32), 32u);
    EXPECT_EQ(roundUp(32, 32), 32u);
    EXPECT_EQ(divCeil(0, 7), 0u);
    EXPECT_EQ(divCeil(7, 7), 1u);
    EXPECT_EQ(divCeil(8, 7), 2u);
}

// ---------- rng ----------

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(12345);
    Rng b(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    unsigned equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3u);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t bound = 1 + rng.nextBelow(1000);
        EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(9);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.nextBelow(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, Fp16InRange)
{
    // Floats just below 2 round up to exactly 2.0 in FP16, so the upper
    // bound is inclusive.
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        const float f = rng.nextFp16().toFloat();
        EXPECT_GE(f, -2.0f);
        EXPECT_LE(f, 2.0f);
    }
}

TEST(Rng, AnyFiniteNeverInfNan)
{
    Rng rng(17);
    for (int i = 0; i < 50000; ++i) {
        const Fp16 h = rng.nextFp16AnyFinite();
        EXPECT_FALSE(h.isInf());
        EXPECT_FALSE(h.isNan());
    }
}

// ---------- stats ----------

TEST(Stats, CountersAccumulate)
{
    StatGroup g("test");
    EXPECT_EQ(g.counter("x"), 0u);
    g.add("x");
    g.add("x", 4);
    EXPECT_EQ(g.counter("x"), 5u);
}

TEST(Stats, ScalarsSetAndAdd)
{
    StatGroup g;
    g.set("v", 1.5);
    g.addScalar("v", 0.5);
    EXPECT_DOUBLE_EQ(g.scalar("v"), 2.0);
}

TEST(Stats, ResetZeroes)
{
    StatGroup g;
    g.add("a", 10);
    g.set("b", 3.0);
    g.reset();
    EXPECT_EQ(g.counter("a"), 0u);
    EXPECT_DOUBLE_EQ(g.scalar("b"), 0.0);
}

TEST(Stats, MergeSums)
{
    StatGroup a, b;
    a.add("x", 2);
    b.add("x", 3);
    b.add("y", 1);
    a.merge(b);
    EXPECT_EQ(a.counter("x"), 5u);
    EXPECT_EQ(a.counter("y"), 1u);
}

TEST(Stats, DumpFormat)
{
    StatGroup g("grp");
    g.add("count", 7);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "grp.count 7\n");
}

TEST(StatCounter, UnusedHandleAddsNoKey)
{
    StatGroup g("grp");
    StatCounter c(&g, "never");
    (void)c;
    EXPECT_TRUE(g.counters().empty());
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "");
}

TEST(StatCounter, AddMatchesGroupAdd)
{
    StatGroup by_name("grp"), by_handle("grp");
    by_name.add("b", 3);
    by_name.add("a");
    by_name.add("b");
    StatCounter a(&by_handle, "a"), b(&by_handle, "b");
    b.add(3);
    a.add();
    b.add();
    EXPECT_EQ(by_handle.counters(), by_name.counters());
    std::ostringstream x, y;
    by_name.dump(x);
    by_handle.dump(y);
    EXPECT_EQ(y.str(), x.str());

    // A handle and a name lookup share one entry.
    by_handle.add("a", 2);
    a.add(5);
    EXPECT_EQ(by_handle.counter("a"), 8u);
}

TEST(StatCounter, KeepsCountingAfterReset)
{
    StatGroup g;
    StatCounter c(&g, "x");
    c.add(4);
    g.reset();
    EXPECT_EQ(g.counter("x"), 0u);
    c.add(2);
    EXPECT_EQ(g.counter("x"), 2u);
}

TEST(StatCounter, NullGroupIsNoOp)
{
    StatCounter c(nullptr, "x");
    c.add(7);
    StatCounter unbound;
    unbound.add();
    SUCCEED();
}

TEST(Histogram, BucketsAndStats)
{
    Histogram h(10, 5);
    for (std::uint64_t v : {0u, 5u, 12u, 49u, 100u})
        h.sample(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 5 + 12 + 49 + 100) / 5.0);
    EXPECT_EQ(h.buckets()[0], 2u); // 0 and 5
    EXPECT_EQ(h.buckets()[1], 1u); // 12
    EXPECT_EQ(h.buckets()[4], 1u); // 49
    EXPECT_EQ(h.overflow(), 1u);   // 100
}

TEST(Histogram, EmptyIsSane)
{
    Histogram h(10, 4);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(Histogram, PercentilesInterpolateWithinBuckets)
{
    // 100 uniform samples 0..99 over 10-wide buckets: the interpolated
    // nearest-rank percentiles land on the exact sample values.
    Histogram h(10, 10);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.p50(), 50.0);
    EXPECT_DOUBLE_EQ(h.p95(), 95.0);
    EXPECT_DOUBLE_EQ(h.p99(), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 99.0); // clamped to max
}

TEST(Histogram, PercentileOverflowResolvesToMax)
{
    Histogram h(10, 2);
    h.sample(5);
    h.sample(15);
    h.sample(1000); // overflow bucket
    EXPECT_DOUBLE_EQ(h.p99(), 1000.0);
    EXPECT_DOUBLE_EQ(h.p50(), 20.0); // top of the second bucket
}

TEST(Histogram, PercentileSingleSampleClampsToThatValue)
{
    Histogram h(10, 4);
    h.sample(7);
    EXPECT_DOUBLE_EQ(h.p50(), 7.0);
    EXPECT_DOUBLE_EQ(h.p99(), 7.0);
}

TEST(Histogram, PercentileAllOverflowResolvesToMax)
{
    // Every sample past the last bucket: any percentile is max().
    Histogram h(10, 2);
    h.sample(500);
    h.sample(900);
    EXPECT_DOUBLE_EQ(h.percentile(0.01), 900.0);
    EXPECT_DOUBLE_EQ(h.p50(), 900.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 900.0);
}

TEST(Histogram, PercentileClampsPArgumentToValidRange)
{
    Histogram h(10, 10);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    // p <= 0 clamps to the first-ranked sample, never below min().
    EXPECT_GE(h.percentile(0.0), static_cast<double>(h.min()));
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
    // p > 1 clamps to the last-ranked sample, never above max().
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
    EXPECT_LE(h.percentile(2.0), static_cast<double>(h.max()));
}

TEST(Histogram, PercentileBucketBoundaryInterpolation)
{
    // One sample per bucket boundary value: the interpolated position
    // of each rank is the top of its bucket, clamped to [min, max].
    Histogram h(10, 4);
    h.sample(10);
    h.sample(20);
    EXPECT_DOUBLE_EQ(h.p50(), 20.0); // rank 1 -> top of [10,20)
    EXPECT_DOUBLE_EQ(h.p99(), 20.0); // rank 2, clamped to max
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 20.0);
}

TEST(Histogram, ResetForgetsSamplesButKeepsShape)
{
    Histogram h(10, 4);
    for (std::uint64_t v : {3u, 17u, 1000u})
        h.sample(v);
    ASSERT_EQ(h.count(), 3u);
    ASSERT_EQ(h.overflow(), 1u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
    for (std::uint64_t b : h.buckets())
        EXPECT_EQ(b, 0u);

    // The bucket shape survives: samples land where they used to.
    h.sample(17);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.min(), 17u);
    EXPECT_EQ(h.max(), 17u);
}

TEST(Histogram, MergeEqualsOneHistogramFedBothSampleSets)
{
    // Two sample sets of different spread, both with overflow samples
    // (>= 640) and one with the smallest value.
    Rng rng(0x3e6);
    std::vector<std::uint64_t> a, b;
    for (int i = 0; i < 300; ++i)
        a.push_back(50 + rng.nextBelow(200));
    for (int i = 0; i < 100; ++i)
        b.push_back(rng.nextBelow(900));
    a.push_back(5000);

    Histogram ha(10, 64), hb(10, 64), both(10, 64);
    for (std::uint64_t v : a) {
        ha.sample(v);
        both.sample(v);
    }
    for (std::uint64_t v : b) {
        hb.sample(v);
        both.sample(v);
    }
    ASSERT_GT(ha.overflow(), 0u);
    ASSERT_GT(hb.overflow(), 0u);

    ha.merge(hb);
    EXPECT_EQ(ha.count(), both.count());
    EXPECT_EQ(ha.overflow(), both.overflow());
    EXPECT_EQ(ha.buckets(), both.buckets());
    EXPECT_EQ(ha.min(), both.min());
    EXPECT_EQ(ha.max(), both.max());
    EXPECT_EQ(ha.mean(), both.mean());
    EXPECT_EQ(ha.p50(), both.p50());
    EXPECT_EQ(ha.p95(), both.p95());
    EXPECT_EQ(ha.p99(), both.p99());

    // Merging an empty histogram changes nothing; merging into one
    // yields the other.
    Histogram empty(10, 64), copy(10, 64);
    ha.merge(empty);
    EXPECT_EQ(ha.count(), both.count());
    EXPECT_EQ(ha.min(), both.min());
    copy.merge(both);
    EXPECT_EQ(copy.buckets(), both.buckets());
    EXPECT_EQ(copy.min(), both.min());
    EXPECT_EQ(copy.p99(), both.p99());
}

TEST(HistogramDeathTest, MergeRejectsMismatchedShapes)
{
    Histogram h(10, 64);
    const Histogram wider(20, 64), longer(10, 128);
    EXPECT_DEATH(h.merge(wider), "different shapes");
    EXPECT_DEATH(h.merge(longer), "different shapes");
}

TEST(StatGroup, ResetClearsRegisteredHistograms)
{
    StatGroup g("grp");
    Histogram h(10, 4);
    g.registerHistogram("latency", &h);
    EXPECT_EQ(g.histogram("latency"), &h);
    EXPECT_EQ(g.histogram("absent"), nullptr);

    g.add("count", 3);
    g.set("rate", 0.5);
    h.sample(25);
    ASSERT_EQ(h.count(), 1u);

    g.reset();
    EXPECT_EQ(g.counter("count"), 0u);
    EXPECT_DOUBLE_EQ(g.scalar("rate"), 0.0);
    EXPECT_EQ(h.count(), 0u); // reset reached the registered histogram
    EXPECT_EQ(g.histogram("latency"), &h); // registration survives
}

} // namespace
} // namespace pimsim
