/**
 * @file
 * Tests for the telemetry subsystem: metrics registry identity and
 * label canonicalization, log2 histogram bucket math, tracer ring
 * semantics (drop-oldest, category masks, interning), Chrome-trace
 * export well-formedness via the in-tree JSON checker, and the
 * golden-invariance contract (an instrumented run with no exporters
 * armed behaves identically to an uninstrumented one).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/vrio.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json_check.hpp"
#include "telemetry/telemetry.hpp"

namespace vrio {
namespace {

using telemetry::Labels;
using telemetry::LogHistogram;
using telemetry::MetricsRegistry;
using telemetry::TraceCheck;
using telemetry::Tracer;

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, SameIdentityReturnsSameHandle)
{
    MetricsRegistry reg;
    auto &a = reg.counter("io.msgs", {{"host", "0"}});
    auto &b = reg.counter("io.msgs", {{"host", "0"}});
    EXPECT_EQ(&a, &b);
    a.inc();
    b.add(2);
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, LabelOrderIsIrrelevant)
{
    MetricsRegistry reg;
    auto &a = reg.counter("x", {{"a", "1"}, {"b", "2"}});
    auto &b = reg.counter("x", {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, DifferentLabelsAreDifferentSeries)
{
    MetricsRegistry reg;
    auto &a = reg.counter("x", {{"vm", "0"}});
    auto &b = reg.counter("x", {{"vm", "1"}});
    auto &c = reg.counter("x");
    EXPECT_NE(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.size(), 3u);
    a.add(5);
    b.add(7);
    c.add(1);
    EXPECT_EQ(reg.sumCounters("x"), 13u);
    EXPECT_EQ(reg.sumCounters("no.such"), 0u);
}

TEST(MetricsRegistry, FindLocatesExactIdentity)
{
    MetricsRegistry reg;
    reg.counter("a.b", {{"k", "v"}}).add(9);
    const auto *s = reg.find("a.b", {{"k", "v"}});
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->counter.value(), 9u);
    EXPECT_EQ(reg.find("a.b"), nullptr);
    EXPECT_EQ(reg.find("a.b", {{"k", "w"}}), nullptr);
}

TEST(MetricsRegistry, ProbesSampleLazily)
{
    MetricsRegistry reg;
    uint64_t backing = 0;
    reg.probe("probe.x", {}, [&backing]() { return double(backing); });
    backing = 42;
    const auto *s = reg.find("probe.x");
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(s->sampler);
    EXPECT_DOUBLE_EQ(s->sampler(), 42.0);
}

TEST(MetricsRegistry, CountReadsExactlyOneSeries)
{
    MetricsRegistry reg;
    reg.counter("a.b", {{"k", "v"}}).add(9);
    uint64_t backing = 4;
    reg.probe("p.q", {{"k", "v"}}, [&backing]() { return double(backing); });
    reg.gauge("g");
    EXPECT_EQ(reg.count("a.b", {{"k", "v"}}), 9u);
    EXPECT_EQ(reg.count("p.q", {{"k", "v"}}), 4u);
    // A series that does not exist fails loudly instead of reading 0.
    EXPECT_DEATH(reg.count("a.b"), "no telemetry series a.b");
    EXPECT_DEATH(reg.count("a.b", {{"k", "w"}}), "a.b\\{k=w\\}");
    EXPECT_DEATH(reg.count("g"), "not a counter or probe");
}

TEST(MetricsRegistry, ForEachVisitsSortedOrder)
{
    MetricsRegistry reg;
    reg.counter("zeta");
    reg.counter("alpha");
    reg.counter("mid", {{"l", "1"}});
    std::vector<std::string> names;
    reg.forEach([&](const MetricsRegistry::Series &s) {
        names.push_back(s.name);
    });
    ASSERT_EQ(names.size(), 3u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// --------------------------------------------------------------- histogram

// ---------------------------------------------------------------- striping

TEST(Counter, IncAndReset)
{
    telemetry::Counter c;
    c.inc();
    c.add(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, StripedSlotsMergeOnRead)
{
    telemetry::Counter c;
    c.add(5); // pre-stripe value must survive
    c.stripe(4);
    for (unsigned slot = 0; slot < 4; ++slot) {
        telemetry::setShardSlot(slot);
        c.add(slot + 1);
    }
    telemetry::setShardSlot(0);
    EXPECT_EQ(c.value(), 5u + 1 + 2 + 3 + 4);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(LogHistogram, StripedSlotsMergeOnRead)
{
    LogHistogram h;
    h.record(2); // pre-stripe sample
    h.stripe(3);
    telemetry::setShardSlot(1);
    h.record(100);
    telemetry::setShardSlot(2);
    h.record(7);
    telemetry::setShardSlot(0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 109u);
    EXPECT_EQ(h.min(), 2u);
    EXPECT_EQ(h.max(), 100u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    telemetry::setShardSlot(2);
    h.record(9);
    telemetry::setShardSlot(0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.max(), 9u);
}

TEST(MetricsRegistry, EnableShardingStripesExistingAndFutureSeries)
{
    MetricsRegistry reg;
    auto &before = reg.counter("made.before");
    reg.enableSharding(4);
    auto &after = reg.counter("made.after");
    telemetry::setShardSlot(3);
    before.add(2);
    after.add(3);
    telemetry::setShardSlot(1);
    before.add(10);
    after.add(10);
    telemetry::setShardSlot(0);
    EXPECT_EQ(before.value(), 12u);
    EXPECT_EQ(after.value(), 13u);
}

TEST(LogHistogram, BucketEdges)
{
    EXPECT_EQ(LogHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LogHistogram::bucketOf(1), 1u);
    EXPECT_EQ(LogHistogram::bucketOf(2), 2u);
    EXPECT_EQ(LogHistogram::bucketOf(3), 2u);
    EXPECT_EQ(LogHistogram::bucketOf(4), 3u);
    for (unsigned k = 1; k < 64; ++k) {
        uint64_t lo = uint64_t(1) << (k - 1);
        EXPECT_EQ(LogHistogram::bucketOf(lo), k) << "low edge 2^" << (k - 1);
        EXPECT_EQ(LogHistogram::bucketOf((lo << 1) - 1), k)
            << "high edge below 2^" << k;
        EXPECT_EQ(LogHistogram::bucketLow(k), lo);
        EXPECT_EQ(LogHistogram::bucketHigh(k), lo << 1);
    }
    EXPECT_EQ(LogHistogram::bucketOf(~uint64_t(0)), 64u);
    EXPECT_EQ(LogHistogram::bucketLow(0), 0u);
    EXPECT_EQ(LogHistogram::bucketHigh(0), 1u);
}

TEST(LogHistogram, RecordAndStats)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    h.record(0);
    h.record(7);
    h.record(1000);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 1007u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1007.0 / 3.0);
    EXPECT_EQ(h.bucketCount(0), 1u);                       // 0
    EXPECT_EQ(h.bucketCount(LogHistogram::bucketOf(7)), 1u);
    EXPECT_EQ(h.bucketCount(LogHistogram::bucketOf(1000)), 1u);
}

TEST(LogHistogram, QuantileIsBucketMidpoint)
{
    LogHistogram h;
    for (int i = 0; i < 100; ++i)
        h.record(10); // bucket [8,16)
    double q = h.quantile(0.5);
    EXPECT_GE(q, 8.0);
    EXPECT_LT(q, 16.0);
    // Tail quantile of a two-mode distribution lands in the upper bucket.
    for (int i = 0; i < 5; ++i)
        h.record(1 << 20);
    double q99 = h.quantile(0.99);
    EXPECT_GE(q99, double(1 << 19));
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, DisabledByDefaultAndInterningWorksUnarmed)
{
    Tracer tr;
    EXPECT_FALSE(tr.enabled());
    uint16_t a = tr.intern("track.a");
    uint16_t b = tr.intern("track.b");
    uint16_t a2 = tr.intern("track.a");
    EXPECT_EQ(a, a2);
    EXPECT_NE(a, b);
    EXPECT_EQ(tr.internedName(a), "track.a");
    EXPECT_EQ(tr.internedName(b), "track.b");
}

TEST(Tracer, RingOverflowDropsOldest)
{
    Tracer tr;
    tr.enable(4);
    uint16_t trk = tr.intern("t");
    uint16_t nm = tr.intern("e");
    for (uint64_t i = 0; i < 10; ++i)
        tr.instant(trk, nm, sim::Tick(i), telemetry::cat::kSim, i);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.capacity(), 4u);
    EXPECT_EQ(tr.droppedEvents(), 6u);
    // Retained events are the newest four, visited oldest-first.
    std::vector<uint64_t> args;
    tr.forEach([&](const telemetry::TraceEvent &ev) { args.push_back(ev.arg); });
    ASSERT_EQ(args.size(), 4u);
    EXPECT_EQ(args, (std::vector<uint64_t>{6, 7, 8, 9}));
}

TEST(Tracer, CategoryMaskFilters)
{
    Tracer tr;
    tr.enable(64, telemetry::cat::kRecovery);
    uint16_t trk = tr.intern("t");
    uint16_t nm = tr.intern("e");
    tr.instant(trk, nm, sim::Tick(1), telemetry::cat::kPacket);
    tr.instant(trk, nm, sim::Tick(2), telemetry::cat::kRecovery);
    tr.instant(trk, nm, sim::Tick(3), telemetry::cat::kIo);
    EXPECT_EQ(tr.size(), 1u);
    EXPECT_EQ(tr.droppedEvents(), 0u);
}

TEST(Tracer, FirstInstantAndCountNamed)
{
    Tracer tr;
    tr.enable(64);
    uint16_t trk = tr.intern("t");
    uint16_t lapse = tr.intern("recovery.hb_lapse");
    uint16_t other = tr.intern("other");
    tr.instant(trk, other, sim::Tick(5), telemetry::cat::kSim);
    tr.instant(trk, lapse, sim::Tick(10), telemetry::cat::kRecovery);
    tr.instant(trk, lapse, sim::Tick(20), telemetry::cat::kRecovery);
    sim::Tick t = 0;
    ASSERT_TRUE(tr.firstInstant("recovery.hb_lapse", sim::Tick(0), t));
    EXPECT_EQ(t, sim::Tick(10));
    ASSERT_TRUE(tr.firstInstant("recovery.hb_lapse", sim::Tick(11), t));
    EXPECT_EQ(t, sim::Tick(20));
    EXPECT_FALSE(tr.firstInstant("recovery.hb_lapse", sim::Tick(21), t));
    EXPECT_FALSE(tr.firstInstant("no.such", sim::Tick(0), t));
    EXPECT_EQ(tr.countNamed("recovery.hb_lapse"), 2u);
    EXPECT_EQ(tr.countNamed("other"), 1u);
}

TEST(Tracer, DisableReleasesRing)
{
    Tracer tr;
    tr.enable(128);
    uint16_t trk = tr.intern("t");
    tr.instant(trk, trk, sim::Tick(1), telemetry::cat::kSim);
    tr.disable();
    EXPECT_FALSE(tr.enabled());
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.capacity(), 0u);
    // Interned names survive disable so re-arming keeps ids stable.
    EXPECT_EQ(tr.internedName(trk), "t");
}

// --------------------------------------------------------------- exporters

TEST(Export, ChromeTraceIsWellFormed)
{
    Tracer tr;
    tr.enable(256);
    uint16_t g = tr.intern("guest.vm0");
    uint16_t io = tr.intern("vrio.iohv");
    uint16_t kick = tr.intern("guest.kick");
    uint16_t svc = tr.intern("iohost.service");
    tr.instant(g, kick, sim::Tick(1000), telemetry::cat::kPacket, 7);
    tr.span(io, svc, sim::Tick(2000), sim::Tick(500), telemetry::cat::kIo);

    std::ostringstream os;
    telemetry::writeChromeTrace(os, tr);
    TraceCheck chk = telemetry::checkChromeTrace(os.str());
    EXPECT_TRUE(chk.ok) << chk.error;
    EXPECT_EQ(chk.events, 2u);
    EXPECT_TRUE(chk.tracks.count("guest.vm0"));
    EXPECT_TRUE(chk.tracks.count("vrio.iohv"));
}

TEST(Export, MetricsCsvAndSummary)
{
    telemetry::Hub hub;
    hub.metrics.counter("io.msgs", {{"vm", "0"}}).add(11);
    hub.metrics.histogram("lat.ns").record(100);
    hub.metrics.gauge("depth").set(3);
    uint64_t backing = 5;
    hub.metrics.probe("probe.p", {}, [&]() { return double(backing); });

    std::ostringstream csv;
    telemetry::writeMetricsCsv(csv, hub.metrics, "cell0", true);
    std::string text = csv.str();
    EXPECT_NE(text.find("io.msgs"), std::string::npos);
    EXPECT_NE(text.find("cell0"), std::string::npos);
    EXPECT_NE(text.find("vm=0"), std::string::npos);
    // Header exactly once even across repeated submissions.
    telemetry::writeMetricsCsv(csv, hub.metrics, "cell1", false);
    std::string both = csv.str();
    EXPECT_EQ(both.find("cell,kind,series"), both.rfind("cell,kind,series"));

    std::ostringstream summary;
    telemetry::writeMetricsSummary(summary, hub.metrics, "cell0");
    EXPECT_NE(summary.str().find("io.msgs"), std::string::npos);
}

TEST(JsonCheck, RejectsMalformedInput)
{
    telemetry::JsonValue v;
    std::string err;
    EXPECT_FALSE(telemetry::parseJson("", v, err));
    EXPECT_FALSE(telemetry::parseJson("{", v, err));
    EXPECT_FALSE(telemetry::parseJson("{\"a\":}", v, err));
    EXPECT_FALSE(telemetry::parseJson("[1,2,]", v, err));
    EXPECT_FALSE(telemetry::parseJson("{\"a\":1} trailing", v, err));
    EXPECT_TRUE(telemetry::parseJson(
        "{\"a\": [1, -2.5e3, \"s\\n\", true, null]}", v, err))
        << err;
    EXPECT_FALSE(telemetry::checkChromeTrace("{\"noTraceEvents\": []}").ok);
    EXPECT_FALSE(telemetry::checkChromeTrace("not json at all").ok);
}

// ---------------------------------------------------- golden invariance

TEST(Telemetry, ArmedTracerDoesNotPerturbSimulation)
{
    auto run = [](bool armed) {
        core::Testbed tb(models::ModelKind::Vrio, 2);
        if (armed)
            tb.simulation().telemetry().tracer.enable();
        tb.settle();
        auto &gen = tb.generator();
        workloads::NetperfRr rr(gen, gen.newSession(), tb.guest(0), {});
        rr.start();
        tb.runFor(sim::Tick(20) * sim::kMillisecond);
        return std::make_tuple(rr.transactions(), rr.latencyUs().sum(),
                               tb.simulation().now());
    };
    auto off = run(false);
    auto on = run(true);
    EXPECT_EQ(off, on);
}

TEST(Telemetry, InstrumentedRunPopulatesRegistryAndTracks)
{
    core::Testbed tb(models::ModelKind::Vrio, 2);
    tb.simulation().telemetry().tracer.enable();
    tb.settle();
    auto &gen = tb.generator();
    workloads::NetperfRr rr(gen, gen.newSession(), tb.guest(0), {});
    rr.start();
    tb.runFor(sim::Tick(20) * sim::kMillisecond);

    auto &hub = tb.simulation().telemetry();
    EXPECT_GT(hub.metrics.sumCounters("iohost.messages"), 0u);
    EXPECT_GT(hub.metrics.sumCounters("net.link.delivered"), 0u);
    EXPECT_GT(hub.tracer.size(), 0u);

    std::ostringstream os;
    telemetry::writeChromeTrace(os, hub.tracer);
    TraceCheck chk = telemetry::checkChromeTrace(os.str());
    EXPECT_TRUE(chk.ok) << chk.error;
    // End-to-end story: guest kick -> IOhost dispatch/service ->
    // completion needs at least guest, iohv and worker tracks.
    EXPECT_GE(chk.tracks.size(), 5u);
}

TEST(Telemetry, SinkUnarmedWithoutEnvVars)
{
    // The test harness never sets the exporter variables; the cached
    // getenv result must report unarmed so Testbed teardown is free.
    ASSERT_EQ(std::getenv("VRIO_TRACE"), nullptr);
    ASSERT_EQ(std::getenv("VRIO_METRICS"), nullptr);
    EXPECT_FALSE(telemetry::Sink::armed());
}

} // namespace
} // namespace vrio
