/**
 * @file
 * Unit tests for the statistics toolkit.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/distribution.hh"
#include "stats/series.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace middlesim::stats;

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, MeanAndVariance)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic data set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat s;
    s.add(3.5);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesCombined)
{
    RunningStat a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double v = i * 0.37;
        if (i % 2) {
            a.add(v);
        } else {
            b.add(v);
        }
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeIntoEmpty)
{
    RunningStat a, b;
    b.add(1.0);
    b.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 1.5);
}

TEST(ConcentrationCurve, Shares)
{
    // Counts 50, 30, 15, 5 (total 100).
    ConcentrationCurve c({5, 50, 15, 30});
    EXPECT_EQ(c.total(), 100u);
    EXPECT_EQ(c.numKeys(), 4u);
    EXPECT_DOUBLE_EQ(c.maxShare(), 0.50);
    EXPECT_DOUBLE_EQ(c.shareOfTopK(2), 0.80);
    EXPECT_DOUBLE_EQ(c.shareOfTopK(4), 1.0);
    EXPECT_DOUBLE_EQ(c.shareOfTopK(100), 1.0);
    EXPECT_EQ(c.shareOfTopK(0), 0.0);
}

TEST(ConcentrationCurve, KeysForShare)
{
    ConcentrationCurve c({50, 30, 15, 5});
    EXPECT_EQ(c.keysForShare(0.5), 1u);
    EXPECT_EQ(c.keysForShare(0.51), 2u);
    EXPECT_EQ(c.keysForShare(0.8), 2u);
    EXPECT_EQ(c.keysForShare(1.0), 4u);
}

TEST(ConcentrationCurve, Fractions)
{
    ConcentrationCurve c({50, 30, 15, 5});
    EXPECT_DOUBLE_EQ(c.shareOfTopFraction(0.25), 0.50);
    EXPECT_DOUBLE_EQ(c.shareOfTopFraction(0.5), 0.80);
    EXPECT_DOUBLE_EQ(c.shareOfTopFraction(1.0), 1.0);
}

TEST(ConcentrationCurve, SingleKeyOwnsEverything)
{
    ConcentrationCurve c({42});
    EXPECT_DOUBLE_EQ(c.maxShare(), 1.0);
    EXPECT_EQ(c.keysForShare(0.01), 1u);
    EXPECT_EQ(c.keysForShare(1.0), 1u);
    const auto pts = c.curve(4);
    ASSERT_FALSE(pts.empty());
    EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(KeyCounts, AddAndConcentrate)
{
    KeyCounts k;
    for (int i = 0; i < 10; ++i)
        k.add(0x1000);
    k.add(0x2000, 5);
    EXPECT_EQ(k.numKeys(), 2u);
    EXPECT_EQ(k.total(), 15u);
    EXPECT_EQ(k.countOf(0x1000), 10u);
    EXPECT_EQ(k.countOf(0x9999), 0u);
    const auto curve = k.concentration();
    EXPECT_DOUBLE_EQ(curve.maxShare(), 10.0 / 15.0);
}

TEST(Series, Access)
{
    Series s("x");
    s.add(1, 10);
    s.add(2, 30);
    s.add(3, 20);
    EXPECT_DOUBLE_EQ(s.yAt(2), 30.0);
    EXPECT_DOUBLE_EQ(s.yAt(99, -1.0), -1.0);
    EXPECT_DOUBLE_EQ(s.maxY(), 30.0);
    EXPECT_DOUBLE_EQ(s.argmaxY(), 2.0);
}

TEST(Series, MergeSumsMatchingPoints)
{
    Series a("a");
    a.add(1, 10, 3);
    a.add(2, 20, 4);
    Series b("b");
    b.add(1, 5);
    b.add(2, 7, 3);
    a.merge(b);
    ASSERT_EQ(a.points.size(), 2u);
    EXPECT_DOUBLE_EQ(a.yAt(1), 15.0);
    EXPECT_DOUBLE_EQ(a.yAt(2), 27.0);
    // Errors add in quadrature: sqrt(4^2 + 3^2) = 5.
    EXPECT_DOUBLE_EQ(a.points[1].err, 5.0);
}

TEST(Series, MergeInsertsUnmatchedPointsInOrder)
{
    Series a("a");
    a.add(2, 20);
    a.add(4, 40);
    Series b("b");
    b.add(1, 1);
    b.add(3, 3);
    b.add(5, 5);
    a.merge(b);
    ASSERT_EQ(a.points.size(), 5u);
    for (std::size_t i = 0; i < a.points.size(); ++i)
        EXPECT_DOUBLE_EQ(a.points[i].x, static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(a.yAt(3), 3.0);
    EXPECT_DOUBLE_EQ(a.yAt(4), 40.0);
}

TEST(Series, MergeIntoEmptyCopiesOther)
{
    Series a("a");
    Series b("b");
    b.add(3, 30);
    b.add(1, 10);
    a.merge(b);
    ASSERT_EQ(a.points.size(), 2u);
    EXPECT_DOUBLE_EQ(a.points[0].x, 1.0);
    EXPECT_DOUBLE_EQ(a.points[1].x, 3.0);
}

TEST(Table, PrintAndCsv)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("333"), std::string::npos);
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("a,bb"), std::string::npos);
    EXPECT_NE(csv.str().find("333,4"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, NumFormat)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}
