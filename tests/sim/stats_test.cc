/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

using namespace pciesim;
using namespace pciesim::stats;

TEST(StatsCounter, IncrementsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatsScalar, AssignAndAccumulate)
{
    Scalar s;
    s = 2.5;
    s += 1.5;
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(StatsDistribution, TracksMeanMinMax)
{
    Distribution d;
    d.init(0, 100, 10);
    d.sample(10);
    d.sample(20);
    d.sample(60);
    EXPECT_EQ(d.samples(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 30.0);
    EXPECT_DOUBLE_EQ(d.min(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 60.0);
}

TEST(StatsDistribution, BucketsClampOutOfRange)
{
    Distribution d;
    d.init(0, 100, 10);
    d.sample(-5);
    d.sample(1000);
    d.sample(55);
    EXPECT_EQ(d.buckets().front(), 1u);
    EXPECT_EQ(d.buckets().back(), 1u);
    EXPECT_EQ(d.buckets()[5], 1u);
}

TEST(StatsDistribution, WeightedSamples)
{
    Distribution d;
    d.init(0, 10, 2);
    d.sample(1.0, 3);
    EXPECT_EQ(d.samples(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
}

TEST(StatsHistogram, TracksExactSmallValues)
{
    Histogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    for (std::uint64_t v : {1, 2, 3, 4, 5, 6, 7})
        h.sample(v);
    EXPECT_EQ(h.samples(), 7u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 7u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    // Values below 2^subBucketBits land in exact buckets.
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(0.5), 4u);
    EXPECT_EQ(h.quantile(1.0), 7u);
}

TEST(StatsHistogram, QuantilesApproximateLargeValues)
{
    Histogram h;
    for (std::uint64_t i = 0; i < 1000; ++i)
        h.sample(1000 + i);
    // Log-bucketed: p50 within one sub-bucket (12.5%) of exact.
    std::uint64_t p50 = h.quantile(0.50);
    EXPECT_GE(p50, 1300u);
    EXPECT_LE(p50, 1700u);
    // Quantiles never escape the observed range.
    EXPECT_GE(h.quantile(0.0), 1000u);
    EXPECT_LE(h.quantile(1.0), 1999u);
    EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
}

TEST(StatsHistogram, WeightedSamplesAndReset)
{
    Histogram h;
    h.sample(10, 5);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(StatsHistogram, EmptyReadsZeroAndResets)
{
    Histogram h;
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.99), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    h.sample(5);
    EXPECT_EQ(h.quantile(0.5), 5u);
}

TEST(StatsHistogram, HandlesHugeValues)
{
    Histogram h;
    h.sample(1ULL << 40);
    h.sample((1ULL << 40) + 1);
    h.sample(~0ULL);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.max(), ~0ULL);
    EXPECT_GE(h.quantile(0.0), 1ULL << 40);
}

TEST(StatsRegistry, HistogramDumpAndLookup)
{
    Registry r;
    Histogram h;
    for (std::uint64_t i = 1; i <= 100; ++i)
        h.sample(i);
    r.add("x", "lat", &h, "latency (ticks)");
    EXPECT_EQ(r.histogram("x.lat"), &h);
    EXPECT_EQ(r.histogram("missing"), nullptr);
    std::ostringstream os;
    r.dump(os);
    EXPECT_NE(os.str().find("x.lat"), std::string::npos);
    EXPECT_NE(os.str().find("samples=100"), std::string::npos);
    EXPECT_NE(os.str().find("p50="), std::string::npos);
    EXPECT_NE(os.str().find("p99="), std::string::npos);
    r.resetAll();
    EXPECT_EQ(h.samples(), 0u);
}

TEST(StatsRegistry, LooksUpByName)
{
    Registry r;
    Counter c;
    Scalar s;
    c += 7;
    s = 3.5;
    r.add("a", "counter", &c);
    r.add("a", "scalar", &s);
    EXPECT_EQ(r.counterValue("a.counter"), 7u);
    EXPECT_DOUBLE_EQ(r.scalarValue("a.scalar"), 3.5);
    EXPECT_TRUE(r.has("a.counter"));
    EXPECT_FALSE(r.has("missing"));
}

TEST(StatsRegistry, MissingLookupWarnsAndReturnsZero)
{
    if (auditEnabled)
        GTEST_SKIP() << "lookup misses panic under audit";
    Registry r;
    Counter c;
    r.add("", "present", &c);
    // The silent-zero trap is now a warn-once: the value is still 0
    // (so old readouts keep working) but the miss is loud.
    EXPECT_EQ(r.counterValue("missing"), 0u);
    EXPECT_EQ(r.counterValue("missing"), 0u);
    EXPECT_DOUBLE_EQ(r.scalarValue("missing"), 0.0);
    // Wrong-kind lookups miss too: "present" is not a scalar.
    EXPECT_DOUBLE_EQ(r.scalarValue("present"), 0.0);
}

TEST(StatsRegistryDeathTest, MissingLookupPanicsUnderAudit)
{
    if (!auditEnabled)
        GTEST_SKIP() << "audit disabled in this build";
    Registry r;
    EXPECT_DEATH((void)r.counterValue("missing"),
                 "audit failed: stat lookup miss");
}

TEST(StatsRegistry, TryLookupsReportPresence)
{
    Registry r;
    Counter c;
    Scalar s;
    c += 9;
    s = 1.25;
    r.add("", "c", &c);
    r.add("", "s", &s);
    ASSERT_TRUE(r.tryCounter("c").has_value());
    EXPECT_EQ(*r.tryCounter("c"), 9u);
    ASSERT_TRUE(r.tryScalar("s").has_value());
    EXPECT_DOUBLE_EQ(*r.tryScalar("s"), 1.25);
    // Absent names and wrong kinds are nullopt, never 0-with-warn.
    EXPECT_FALSE(r.tryCounter("missing").has_value());
    EXPECT_FALSE(r.tryScalar("missing").has_value());
    EXPECT_FALSE(r.tryCounter("s").has_value());
    EXPECT_FALSE(r.tryScalar("c").has_value());
}

TEST(StatsRegistry, DumpContainsNamesValuesAndDescriptions)
{
    Registry r;
    Counter c;
    c += 42;
    r.add("x", "count", &c, "things counted");
    std::ostringstream os;
    r.dump(os);
    EXPECT_NE(os.str().find("x.count"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
    EXPECT_NE(os.str().find("things counted"), std::string::npos);
}

TEST(StatsRegistry, ResetAllZeroesEverything)
{
    Registry r;
    Counter c;
    Scalar s;
    Distribution d;
    d.init(0, 10, 2);
    c += 3;
    s = 1.0;
    d.sample(5);
    r.add("", "c", &c);
    r.add("", "s", &s);
    r.add("", "d", &d);
    r.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_EQ(d.samples(), 0u);
}

TEST(StatsRegistry, DuplicateNamePanics)
{
    setLoggingThrows(true);
    Registry r;
    Counter a, b;
    r.add("", "dup", &a);
    EXPECT_THROW(r.add("", "dup", &b), PanicError);
    setLoggingThrows(false);
}

TEST(Logging, ConcatenatesHeterogeneousArguments)
{
    setLoggingThrows(true);
    try {
        panic("x=", 42, " y=", 2.5, " z=", "str");
        FAIL();
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: x=42 y=2.5 z=str");
    }
    setLoggingThrows(false);
}

TEST(Logging, FatalThrowsFatalError)
{
    setLoggingThrows(true);
    EXPECT_THROW(fatal("bad config"), FatalError);
    EXPECT_THROW(fatalIf(true, "bad"), FatalError);
    EXPECT_NO_THROW(fatalIf(false, "fine"));
    EXPECT_NO_THROW(panicIf(false, "fine"));
    setLoggingThrows(false);
}

TEST(StatsVector, SubnamesTotalsAndReset)
{
    Vector v;
    v.init(3);
    v.subname(0, "port0");
    v.subname(2, "port2");
    ++v[0];
    v[1] += 4;
    v[2] += 2;
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1].value(), 4u);
    EXPECT_EQ(v.total(), 7u);
    EXPECT_EQ(v.subnameOf(0), "port0");
    EXPECT_EQ(v.subnameOf(1), "");
    v.reset();
    EXPECT_EQ(v.total(), 0u);
}

TEST(StatsVector, DumpExpandsElementsAndTotal)
{
    Registry r;
    Vector v;
    v.init(2);
    v.subname(0, "rx");
    v.subname(1, "tx");
    ++v[1];
    r.add("link", "pkts", &v, "packets per direction");
    std::ostringstream os;
    r.dump(os);
    EXPECT_NE(os.str().find("link.pkts.rx"), std::string::npos);
    EXPECT_NE(os.str().find("link.pkts.tx"), std::string::npos);
    EXPECT_NE(os.str().find("link.pkts.total"), std::string::npos);
    r.resetAll();
    EXPECT_EQ(v.total(), 0u);
}

TEST(StatsFormula, EvaluatesAtReadTime)
{
    Registry r;
    Counter num, den;
    Formula frac([&] {
        return den.value() == 0
                   ? 0.0
                   : static_cast<double>(num.value()) /
                         static_cast<double>(den.value());
    });
    r.add("", "frac", &frac, "live ratio", Unit::Ratio);
    EXPECT_DOUBLE_EQ(r.formulaValue("frac"), 0.0);
    num += 1;
    den += 4;
    // No snapshotting: the formula sees its inputs' current values.
    EXPECT_DOUBLE_EQ(r.formulaValue("frac"), 0.25);
    den += 4;
    EXPECT_DOUBLE_EQ(r.formulaValue("frac"), 0.125);
}

TEST(StatsFormula, UnboundReadsZero)
{
    Formula f;
    EXPECT_FALSE(f.bound());
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
}

TEST(StatsRegistry, RemoveUnregisters)
{
    Registry r;
    Formula f([] { return 1.0; });
    r.add("", "transient", &f);
    EXPECT_TRUE(r.has("transient"));
    EXPECT_TRUE(r.remove("transient"));
    EXPECT_FALSE(r.has("transient"));
    EXPECT_FALSE(r.remove("transient"));
    // The name is free for re-registration (the dd workload's
    // register-in-ctor / remove-in-dtor pattern relies on this).
    Formula g([] { return 2.0; });
    r.add("", "transient", &g);
    EXPECT_DOUBLE_EQ(r.formulaValue("transient"), 2.0);
}

TEST(StatsRegistry, RemoveKeepsTheRestFindable)
{
    Registry r;
    std::vector<Counter> c(200);
    static constexpr const char *owners[] = {"sys.a", "sys.b"};
    for (std::size_t i = 0; i < c.size(); ++i) {
        c[i] += i;
        r.add(std::string(owners[i % 2]) + ".n" + std::to_string(i),
              "count", &c[i]);
    }
    auto name = [&](std::size_t i) {
        return std::string(owners[i % 2]) + ".n" + std::to_string(i) +
               ".count";
    };
    for (std::size_t i = 0; i < c.size(); i += 3)
        EXPECT_TRUE(r.remove(name(i)));
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(r.has(name(i)), i % 3 != 0) << name(i);
        if (i % 3 != 0) {
            EXPECT_EQ(r.counterValue(name(i)), i);
        }
    }
    // Re-adding a removed name works, under the same owner split.
    for (std::size_t i = 0; i < c.size(); i += 3) {
        r.add(std::string(owners[i % 2]) + ".n" + std::to_string(i),
              "count", &c[i]);
    }
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(r.counterValue(name(i)), i) << name(i);
}

TEST(StatsRegistry, DumpOrderIsByteWiseFullNameOrder)
{
    // Ordering by owner would put "sys.sw0" (a prefix of
    // "sys.sw0.dp1") first; by full name ".dp1.x" < ".fwd".
    Registry r;
    Counter fwd, x;
    r.add("sys.sw0", "fwd", &fwd);
    r.add("sys.sw0.dp1", "x", &x);
    std::ostringstream text;
    r.dump(text);
    EXPECT_LT(text.str().find("sys.sw0.dp1.x"),
              text.str().find("sys.sw0.fwd"));
    std::ostringstream json;
    r.dumpJson(json);
    EXPECT_LT(json.str().find("\"sys.sw0.dp1.x\""),
              json.str().find("\"sys.sw0.fwd\""));

    // The cached order follows a later add.
    Counter a;
    r.add("sys", "a", &a);
    std::ostringstream again;
    r.dump(again);
    EXPECT_LT(again.str().find("sys.a "), again.str().find("sys.sw0"));
}

TEST(StatsRegistry, DottedSuffixLookupAndMisses)
{
    Registry r;
    Formula util([] { return 0.5; });
    r.add("system.link0", "wireUp.utilization", &util, "",
          Unit::Ratio);
    EXPECT_TRUE(r.has("system.link0.wireUp.utilization"));
    EXPECT_DOUBLE_EQ(r.formulaValue("system.link0.wireUp.utilization"),
                     0.5);
    EXPECT_FALSE(r.has("system.link0.wireUp"));
    EXPECT_FALSE(r.has("system.link0"));
    EXPECT_FALSE(r.has("system.link0.wireUp.utilizatio"));
    EXPECT_FALSE(r.has(""));
    EXPECT_FALSE(
        r.tryCounter("system.link0.wireUp.utilization").has_value());
    EXPECT_FALSE(r.tryCounter("system.link1.wireUp.utilization")
                     .has_value());
}

TEST(StatsRegistry, SameFullNameFromAnotherSplitPanics)
{
    setLoggingThrows(true);
    Registry r;
    Counter a, b;
    r.add("a.b", "c", &a);
    EXPECT_THROW(r.add("a", "b.c", &b), PanicError);
    EXPECT_THROW(r.add("", "a.b.c", &b), PanicError);
    EXPECT_EQ(r.counterValue("a.b.c"), 0u);
    setLoggingThrows(false);
}

TEST(StatsRegistry, DumpShowsUnits)
{
    Registry r;
    Counter c;
    Scalar s;
    r.add("", "bytes", &c, "payload", Unit::Byte);
    r.add("", "plain", &s, "unitless");
    std::ostringstream os;
    r.dump(os);
    EXPECT_NE(os.str().find("(byte)"), std::string::npos);
    // Unit::None stays silent rather than printing "()".
    EXPECT_EQ(os.str().find("()"), std::string::npos);
    EXPECT_STREQ(unitName(Unit::BitPerSecond), "bit/s");
    EXPECT_STREQ(unitName(Unit::Tick), "tick");
    EXPECT_STREQ(unitName(Unit::None), "");
}

TEST(StatsRegistry, DumpJsonIsVersionedAndComplete)
{
    Registry r;
    Counter c;
    Vector v;
    Histogram h;
    c += 5;
    v.init(2);
    v.subname(0, "a");
    ++v[1];
    h.sample(7);
    r.add("", "count", &c, "a \"quoted\" desc", Unit::Count);
    r.add("", "vec", &v, "", Unit::Count);
    r.add("", "hist", &h, "", Unit::Tick);
    std::ostringstream os;
    r.dumpJson(os, 1234, 2);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"schema\": \"pciesim-stats\""),
              std::string::npos);
    EXPECT_NE(out.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"curTick\": 1234"), std::string::npos);
    EXPECT_NE(out.find("\"epoch\": 2"), std::string::npos);
    EXPECT_NE(out.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(out.find("\"total\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"p99\""), std::string::npos);
}

//
// Histogram::quantile boundary behaviour (satellite S4).
//

TEST(StatsHistogram, QuantileBoundariesHitMinAndMax)
{
    Histogram h;
    for (std::uint64_t v : {100, 2000, 30000, 400000})
        h.sample(v);
    EXPECT_EQ(h.quantile(0.0), h.min());
    EXPECT_EQ(h.quantile(1.0), h.max());
    // Out-of-range q is clamped, not undefined behaviour.
    EXPECT_EQ(h.quantile(-1.0), h.min());
    EXPECT_EQ(h.quantile(2.0), h.max());
}

TEST(StatsHistogram, SingleSampleIsEveryQuantile)
{
    Histogram h;
    h.sample(123456);
    for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 1.0})
        EXPECT_EQ(h.quantile(q), 123456u) << "q=" << q;
}

TEST(StatsHistogram, QuantilesMonotoneOnSkewedData)
{
    // Heavily skewed: most samples tiny, a long expensive tail —
    // the shape of a latency distribution under congestion.
    Histogram h;
    for (int i = 0; i < 900; ++i)
        h.sample(10);
    for (int i = 0; i < 90; ++i)
        h.sample(100000);
    for (int i = 0; i < 10; ++i)
        h.sample(10000000);
    std::uint64_t p50 = h.quantile(0.50);
    std::uint64_t p95 = h.quantile(0.95);
    std::uint64_t p99 = h.quantile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_EQ(p50, 10u);
    EXPECT_GE(p99, 100000u);
    EXPECT_LE(p99, h.max());
}

TEST(Ticks, ConversionsAreConsistent)
{
    using namespace pciesim::literals;
    EXPECT_EQ(1_ns, 1000u);
    EXPECT_EQ(1_us, 1000u * 1000u);
    EXPECT_EQ(1_ms, 1000u * 1000u * 1000u);
    EXPECT_EQ(2_s, 2000ull * 1000ull * 1000ull * 1000ull);
    EXPECT_DOUBLE_EQ(ticksToSeconds(seconds(3)), 3.0);
    EXPECT_DOUBLE_EQ(ticksToNs(nanoseconds(7)), 7.0);
}
