/**
 * @file
 * Unit tests for the stats module.
 */
#include <gtest/gtest.h>

#include "stats/histogram.hpp"
#include "stats/table.hpp"
#include "stats/time_series.hpp"

namespace vrio::stats {
namespace {

TEST(Histogram, BasicMoments)
{
    Histogram h;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        h.add(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(h.min(), 2.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
    EXPECT_DOUBLE_EQ(h.sum(), 40.0);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

TEST(Histogram, ExactPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(double(i));
    EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(1), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
}

TEST(Histogram, DeepTailPercentiles)
{
    // Table 4 needs 99.999%: check nearest-rank at depth.
    Histogram h;
    for (int i = 0; i < 100000; ++i)
        h.add(1.0);
    h.add(1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.999), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(Histogram, InterpolatedPercentileEdgeCases)
{
    // Empty: mirrors percentile()'s zero convention.
    Histogram empty;
    EXPECT_DOUBLE_EQ(empty.percentileInterpolated(50), 0.0);

    // A single sample is every percentile of itself.
    Histogram one;
    one.add(7.0);
    EXPECT_DOUBLE_EQ(one.percentileInterpolated(0), 7.0);
    EXPECT_DOUBLE_EQ(one.percentileInterpolated(50), 7.0);
    EXPECT_DOUBLE_EQ(one.percentileInterpolated(100), 7.0);

    // Two samples: the whole [0,100] range interpolates linearly
    // between them — the exclusive convention's defining case.
    Histogram two;
    two.add(10.0);
    two.add(20.0);
    EXPECT_DOUBLE_EQ(two.percentileInterpolated(0), 10.0);
    EXPECT_DOUBLE_EQ(two.percentileInterpolated(25), 12.5);
    EXPECT_DOUBLE_EQ(two.percentileInterpolated(50), 15.0);
    EXPECT_DOUBLE_EQ(two.percentileInterpolated(75), 17.5);
    EXPECT_DOUBLE_EQ(two.percentileInterpolated(100), 20.0);
}

TEST(Histogram, InterpolatedPercentileMatchesNumpyConvention)
{
    // rank = p/100 * (n-1) over sorted samples {1..100}:
    // p50 -> rank 49.5 -> midway between 50 and 51.
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(double(i));
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(50), 50.5);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(100), 100.0);
    EXPECT_NEAR(h.percentileInterpolated(99), 99.01, 1e-9);

    // Within a tail bucket the interpolated value moves smoothly
    // where nearest-rank steps a whole sample at a time, and the
    // estimate is monotone in p.
    double prev = 0;
    for (double p = 0; p <= 100.0; p += 0.37) {
        double v = h.percentileInterpolated(p);
        EXPECT_GE(v, prev) << "p " << p;
        prev = v;
    }
    // Interpolation never leaves the winning bucket: it is bounded
    // by the nearest-rank neighbors on either side.
    EXPECT_GE(h.percentileInterpolated(99.9), h.percentile(99.9) - 1.0);
    EXPECT_LE(h.percentileInterpolated(99.9), h.percentile(100));
}

TEST(Histogram, AddAfterPercentileKeepsSorting)
{
    Histogram h;
    h.add(5.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
    h.add(1.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(Histogram, ResetClearsAll)
{
    Histogram h;
    h.add(3.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(TimeSeries, RunningAverage)
{
    TimeSeries ts;
    ts.add(0, 10);
    ts.add(1, 20);
    ts.add(2, 30);
    auto avg = ts.runningAverage();
    ASSERT_EQ(avg.size(), 3u);
    EXPECT_DOUBLE_EQ(avg[0].value, 10.0);
    EXPECT_DOUBLE_EQ(avg[1].value, 15.0);
    EXPECT_DOUBLE_EQ(avg[2].value, 20.0);
}

TEST(TimeSeries, Resample)
{
    TimeSeries ts;
    ts.add(5, 1);
    ts.add(15, 3);
    ts.add(17, 5);
    ts.add(35, 7);
    auto out = ts.resample(0, 40, 10);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_DOUBLE_EQ(out[0].value, 1.0);
    EXPECT_DOUBLE_EQ(out[1].value, 4.0); // mean of 3 and 5
    EXPECT_DOUBLE_EQ(out[2].value, 0.0); // empty window
    EXPECT_DOUBLE_EQ(out[3].value, 7.0);
}

TEST(TimeSeries, NonMonotonicTickPanics)
{
    TimeSeries ts;
    ts.add(10, 1);
    EXPECT_DEATH(ts.add(5, 2), "non-decreasing");
}

TEST(Table, RendersAlignedColumns)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow("beta", {2.5}, 1);
    std::string s = t.toString();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(t.cell(1, 1), "2.5");
}

TEST(Table, CsvOutput)
{
    Table t("x");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.toCsv(), "a,b\n1,2\n");
}

TEST(Table, ArityMismatchPanics)
{
    Table t("x");
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

} // namespace
} // namespace vrio::stats
