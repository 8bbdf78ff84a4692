/**
 * @file
 * Unit tests for counters and sample distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/histogram.hh"
#include "sim/stats.hh"

namespace skipit {
namespace {

TEST(Stats, CountersDefaultToZero)
{
    Stats s;
    EXPECT_EQ(s.get("never.touched"), 0u);
}

TEST(Stats, CountersAccumulate)
{
    // Reads see the registered field's current value.
    std::uint64_t b = 0;
    Stats s;
    s.add("a.", {{"b", &b}});
    b += 3;
    ++b;
    EXPECT_EQ(s.get("a.b"), 4u);
}

TEST(Stats, DumpListsAllCountersSorted)
{
    std::uint64_t z = 1;
    std::uint64_t a = 2;
    Stats s;
    s.add("", {{"z", &z}, {"a", &a}});
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "a = 2\nz = 1\n");
}

TEST(Stats, DumpOrderingIsDeterministic)
{
    // Registration order must not leak into the dump: counters print in
    // lexicographic name order regardless of registration order.
    std::uint64_t one = 1;
    Stats a, b;
    for (const char *k : {"l2.fills", "l1.0.nacks", "dram.reads", "a"})
        a.add("", {{k, &one}});
    for (const char *k : {"a", "dram.reads", "l1.0.nacks", "l2.fills"})
        b.add("", {{k, &one}});
    std::ostringstream oa, ob;
    a.dump(oa);
    b.dump(ob);
    EXPECT_EQ(oa.str(), ob.str());
    EXPECT_EQ(oa.str(),
              "a = 1\ndram.reads = 1\nl1.0.nacks = 1\nl2.fills = 1\n");
}

TEST(Stats, ByPrefixSelectsHierarchically)
{
    std::uint64_t hits0 = 10;
    std::uint64_t misses0 = 2;
    std::uint64_t hits1 = 7;
    std::uint64_t l2_hits = 5;
    Stats s;
    s.add("l1.0.", {{"hits", &hits0}, {"misses", &misses0}});
    s.add("l1.1.", {{"hits", &hits1}});
    s.add("l2.", {{"hits", &l2_hits}});
    const auto l1_0 = s.byPrefix("l1.0.");
    ASSERT_EQ(l1_0.size(), 2u);
    EXPECT_EQ(l1_0[0].first, "l1.0.hits");
    EXPECT_EQ(l1_0[1].first, "l1.0.misses");
    EXPECT_EQ(s.sumPrefix("l1."), 19u);
    EXPECT_EQ(s.sumPrefix("l2."), 5u);
    EXPECT_EQ(s.sumPrefix("dram."), 0u);
    EXPECT_EQ(s.byPrefix("").size(), 4u); // empty prefix matches all
}

TEST(Stats, DumpPrefixPrintsOnlyMatching)
{
    std::uint64_t l1_hits = 1;
    std::uint64_t l2_hits = 2;
    Stats s;
    s.add("l1.0.", {{"hits", &l1_hits}});
    s.add("l2.", {{"hits", &l2_hits}});
    std::ostringstream os;
    s.dumpPrefix(os, "l2.");
    EXPECT_EQ(os.str(), "l2.hits = 2\n");
}

TEST(Stats, ZeroFieldIsHidden)
{
    // A registered counter still at zero reads like one never bumped:
    // absent from dump() and byPrefix(), and get() returns 0.
    std::uint64_t hits = 0;
    std::uint64_t misses = 3;
    Stats s;
    s.add("l1.0.", {{"hits", &hits}, {"misses", &misses}});
    EXPECT_EQ(s.get("l1.0.hits"), 0u);
    EXPECT_TRUE(s.byPrefix("l1.0.hits").empty());
    ASSERT_EQ(s.byPrefix("").size(), 1u);
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "l1.0.misses = 3\n");
}

TEST(Stats, SameNameRegistrationsSum)
{
    // Every L2 slice registers its fields under "l2."; readers see one
    // counter holding the total.
    std::uint64_t slice0 = 4;
    std::uint64_t slice1 = 3;
    Stats s;
    s.add("l2.", {{"fills", &slice0}});
    s.add("l2.", {{"fills", &slice1}});
    EXPECT_EQ(s.get("l2.fills"), 7u);
    EXPECT_EQ(s.sumPrefix("l2."), 7u);
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "l2.fills = 7\n");
}

TEST(Distribution, MedianOfOddCount)
{
    Distribution d;
    for (double v : {5.0, 1.0, 3.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.median(), 3.0);
}

TEST(Distribution, MedianOfEvenCountInterpolates)
{
    Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.median(), 2.5);
}

TEST(Distribution, MeanAndStddev)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 2.0);
}

TEST(Distribution, PercentileBounds)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
    EXPECT_NEAR(d.percentile(50), 50.5, 1e-9);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
}

TEST(Distribution, EmptyPercentileAndMedianAreNaN)
{
    // Documented contract: querying an empty distribution returns NaN
    // rather than asserting, so "histogram of a stage that never fired"
    // is representable.
    Distribution d;
    EXPECT_TRUE(std::isnan(d.median()));
    EXPECT_TRUE(std::isnan(d.percentile(50)));
    EXPECT_TRUE(std::isnan(d.percentile(0)));
    EXPECT_TRUE(std::isnan(d.percentile(100)));
    d.add(1.0);
    EXPECT_DOUBLE_EQ(d.median(), 1.0); // non-empty works again
}

TEST(Distribution, SingleSampleIsEveryPercentile)
{
    Distribution d;
    d.add(42.0);
    EXPECT_DOUBLE_EQ(d.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 42.0);
    EXPECT_DOUBLE_EQ(d.min(), 42.0);
    EXPECT_DOUBLE_EQ(d.max(), 42.0);
}

TEST(Histogram, EmptySummariesAreNaN)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.percentile(50)));
    EXPECT_TRUE(std::isnan(h.percentile(99)));
    EXPECT_TRUE(std::isnan(h.median()));
}

TEST(Histogram, SingleSample)
{
    Histogram h;
    h.add(7.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.percentile(0), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 7.0);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(Histogram, Log2BucketBoundaries)
{
    // Bucket 0 holds v < 1; bucket i (i >= 1) holds [2^(i-1), 2^i).
    // Exact powers of two are the boundary cases: 2^k opens bucket k+1.
    Histogram h;
    h.add(0.0);  // bucket 0
    h.add(0.5);  // bucket 0
    h.add(1.0);  // bucket 1: [1, 2)
    h.add(2.0);  // bucket 2: [2, 4)
    h.add(3.0);  // bucket 2
    h.add(4.0);  // bucket 3: [4, 8)
    h.add(7.0);  // bucket 3
    h.add(8.0);  // bucket 4: [8, 16)
    const auto &b = h.buckets();
    ASSERT_GE(b.size(), 5u);
    EXPECT_EQ(b[0], 2u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[2], 2u);
    EXPECT_EQ(b[3], 2u);
    EXPECT_EQ(b[4], 1u);
    EXPECT_DOUBLE_EQ(Histogram::bucketLow(1), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHigh(1), 2.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketLow(4), 8.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHigh(4), 16.0);
}

} // namespace
} // namespace skipit
