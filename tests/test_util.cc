/**
 * @file
 * Unit tests for the util library: RNG, saturating counters, stats,
 * tables, options, warn-once logging.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/logging.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace pabp {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedRemapped)
{
    Rng z(0);
    EXPECT_NE(z.next(), 0u); // state must never be stuck at zero
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(SatCounter, DefaultsWeaklyNotTaken)
{
    SatCounter c(2);
    EXPECT_EQ(c.raw(), 1u);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.raw(), 3u);
    EXPECT_TRUE(c.isSaturated());
    EXPECT_TRUE(c.predictTaken());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.raw(), 0u);
    EXPECT_TRUE(c.isSaturated());
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, HysteresisNeedsTwoFlips)
{
    SatCounter c(2, 3); // strongly taken
    c.update(false);
    EXPECT_TRUE(c.predictTaken()); // still taken after one miss
    c.update(false);
    EXPECT_FALSE(c.predictTaken());
}

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SatCounterWidth, MsbRuleThreshold)
{
    unsigned bits = GetParam();
    unsigned max = (1u << bits) - 1;
    for (unsigned v = 0; v <= max; ++v) {
        SatCounter c(bits, static_cast<int>(v));
        EXPECT_EQ(c.predictTaken(), v >= (max + 1) / 2)
            << "bits=" << bits << " v=" << v;
    }
}

TEST_P(SatCounterWidth, IncrementReachesMaxExactly)
{
    unsigned bits = GetParam();
    SatCounter c(bits, 0);
    unsigned max = (1u << bits) - 1;
    for (unsigned i = 0; i < max; ++i)
        c.increment();
    EXPECT_EQ(c.raw(), max);
    c.increment();
    EXPECT_EQ(c.raw(), max);
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(40); // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 9 + 10 + 39 + 40) / 5.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(2, 1);
    h.sample(0);
    h.sample(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflowCount(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(StatGroup, ScalarLifecycle)
{
    StatGroup g;
    ++g.scalar("a.b");
    g.scalar("a.b") += 4;
    EXPECT_EQ(g.value("a.b"), 5u);
    EXPECT_EQ(g.value("missing"), 0u);
    g.reset();
    EXPECT_EQ(g.value("a.b"), 0u);
}

TEST(StatGroup, RatioHandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(StatGroup::ratio(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(StatGroup::ratio(1, 4), 0.25);
}

TEST(StatGroup, PrintSortedByName)
{
    StatGroup g;
    ++g.scalar("z");
    ++g.scalar("a");
    std::ostringstream os;
    g.print(os);
    EXPECT_EQ(os.str(), "a 1\nz 1\n");
}

TEST(Table, AlignedPrint)
{
    Table t({"name", "value"});
    t.startRow();
    t.cell("x");
    t.cell(std::uint64_t{7});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| x"), std::string::npos);
    EXPECT_EQ(t.at(0, 1), "7");
}

TEST(Table, NumericFormatting)
{
    Table t({"a", "b"});
    t.startRow();
    t.cell(0.12345, 3);
    t.percentCell(0.125);
    EXPECT_EQ(t.at(0, 0), "0.123");
    EXPECT_EQ(t.at(0, 1), "12.50%");
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.startRow();
    t.cell("1");
    t.cell("2");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Logging, WarnOnceSaysEachMessageOnceAndCountsRepeats)
{
    // Every sweep cell builds its own predictor, so a per-build
    // warning would repeat once per cell; warn_once keeps the first
    // and counts the rest for the one-line summary at exit.
    const std::uint64_t before = suppressedWarnings();
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        pabp_warn_once("warn-once probe A");
    pabp_warn_once("warn-once probe B");
    const std::string err = ::testing::internal::GetCapturedStderr();

    std::size_t a_lines = 0;
    for (std::size_t at = err.find("probe A"); at != std::string::npos;
         at = err.find("probe A", at + 1))
        ++a_lines;
    EXPECT_EQ(a_lines, 1u) << err;
    EXPECT_NE(err.find("probe B"), std::string::npos) << err;
    EXPECT_EQ(suppressedWarnings() - before, 2u);
}

TEST(Options, DefaultsAndOverrides)
{
    Options o;
    o.declare("steps", "100", "run length");
    o.declare("name", "gshare", "predictor");
    const char *argv[] = {"prog", "--steps=250"};
    ASSERT_TRUE(o.parse(2, argv));
    EXPECT_EQ(o.integer("steps"), 250);
    EXPECT_EQ(o.str("name"), "gshare");
}

TEST(Options, SpaceSeparatedValue)
{
    Options o;
    o.declare("k", "1", "k");
    const char *argv[] = {"prog", "--k", "9"};
    ASSERT_TRUE(o.parse(3, argv));
    EXPECT_EQ(o.integer("k"), 9);
}

TEST(Options, HelpReturnsFalse)
{
    Options o;
    o.declare("k", "1", "k");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(o.parse(2, argv));
}

TEST(Options, FlagAndRealParsing)
{
    Options o;
    o.declare("csv", "0", "emit csv");
    o.declare("ratio", "0.5", "a ratio");
    const char *argv[] = {"prog", "--csv", "--ratio=0.25"};
    ASSERT_TRUE(o.parse(3, argv));
    EXPECT_TRUE(o.flag("csv"));
    EXPECT_DOUBLE_EQ(o.real("ratio"), 0.25);
}

} // namespace
} // namespace pabp
