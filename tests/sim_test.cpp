/**
 * @file
 * Unit tests for the discrete-event engine: ordering, cancellation,
 * resources, RNG distributions, tick conversions.
 */
#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/ticks.hpp"

namespace vrio::sim {
namespace {

TEST(Ticks, Conversions)
{
    EXPECT_EQ(kMicrosecond, 1000000u);
    EXPECT_EQ(bytesToTicks(1250, 10.0), 1000u * kNanosecond); // 1 us
    // 2200 cycles at 2.2 GHz = 1 us.
    EXPECT_EQ(cyclesToTicks(2200, 2.2), 1000u * kNanosecond);
    EXPECT_DOUBLE_EQ(ticksToMicros(kMillisecond), 1000.0);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSecond), 1.0);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(10, [&order, i]() { order.push_back(i); });
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(10, [&]() {
        eq.schedule(5, [&]() { fired_at = eq.now(); });
    });
    eq.runToCompletion();
    EXPECT_EQ(fired_at, 15u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool fired = false;
    EventHandle h = eq.schedule(10, [&]() { fired = true; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    eq.runToCompletion();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue eq;
    EventHandle h = eq.schedule(1, []() {});
    eq.runToCompletion();
    EXPECT_FALSE(h.pending());
    h.cancel(); // must not crash
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&]() { ++count; });
    eq.schedule(20, [&]() { ++count; });
    uint64_t n = eq.runUntil(15);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 15u);
    eq.runToCompletion();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.runToCompletion();
    EXPECT_DEATH(eq.scheduleAt(5, []() {}), "past");
}

TEST(EventQueue, EmptyReflectsCancelled)
{
    EventQueue eq;
    EventHandle h = eq.schedule(10, []() {});
    EXPECT_FALSE(eq.empty());
    h.cancel();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelledTimersDoNotBloatHeap)
{
    // Retransmit pattern: arm a long timer, complete fast, cancel.
    // The seed queue kept every cancelled entry resident until its
    // tick was reached (~100k entries here); compaction must keep the
    // heap near the live-event count instead.
    EventQueue eq;
    const int kTimers = 100000;
    size_t peak_heap = 0;
    for (int i = 0; i < kTimers; ++i) {
        EventHandle h =
            eq.schedule(Tick(10) * kMillisecond, []() {});
        h.cancel();
        peak_heap = std::max(peak_heap, eq.heapSize());
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_LT(peak_heap, 1024u);
    EXPECT_LT(eq.heapSize(), 256u);
}

TEST(EventQueue, CancelBurstCompacts)
{
    // Burst-arm many timers, then cancel them all at once.
    EventQueue eq;
    std::vector<EventHandle> timers;
    for (int i = 0; i < 100000; ++i)
        timers.push_back(eq.schedule(Tick(i + 1) * kMicrosecond, []() {}));
    EXPECT_EQ(eq.heapSize(), 100000u);
    for (auto &h : timers)
        h.cancel();
    EXPECT_TRUE(eq.empty());
    // Lazy deletion plus compaction: bulk cancellation must not leave
    // the heap full of dead entries.
    EXPECT_LT(eq.heapSize(), 256u);
}

TEST(EventQueue, SlotPoolIsRecycled)
{
    // Steady-state schedule/fire must reuse a handful of slots, not
    // grow storage per event.
    EventQueue eq;
    for (int i = 0; i < 10000; ++i) {
        eq.schedule(1, []() {});
        eq.step();
    }
    EXPECT_LT(eq.slotCapacity(), 16u);
}

TEST(EventQueue, StaleHandleCannotCancelReusedSlot)
{
    EventQueue eq;
    bool first_fired = false, second_fired = false;
    EventHandle a = eq.schedule(10, [&]() { first_fired = true; });
    a.cancel();
    // The slot freed by `a` is reused by `b`.
    EventHandle b = eq.schedule(20, [&]() { second_fired = true; });
    EXPECT_FALSE(a.pending());
    EXPECT_TRUE(b.pending());
    a.cancel(); // stale generation: must not touch b
    EXPECT_TRUE(b.pending());
    eq.runToCompletion();
    EXPECT_FALSE(first_fired);
    EXPECT_TRUE(second_fired);
}

TEST(EventQueue, StaleHandleNotPendingAfterReuse)
{
    EventQueue eq;
    EventHandle a = eq.schedule(10, []() {});
    eq.runToCompletion(); // a fired; slot released
    EventHandle b = eq.schedule(10, []() {});
    EXPECT_FALSE(a.pending());
    EXPECT_TRUE(b.pending());
    a.cancel(); // no-op on the reused slot
    EXPECT_TRUE(b.pending());
    eq.runToCompletion();
    EXPECT_FALSE(b.pending());
}

TEST(EventQueue, HandlesSurviveManyReuses)
{
    EventQueue eq;
    EventHandle first = eq.schedule(1, []() {});
    eq.runToCompletion();
    // Cycle the same slot many times; the original handle must stay
    // inert through every generation.
    for (int i = 0; i < 1000; ++i) {
        bool fired = false;
        EventHandle h = eq.schedule(1, [&]() { fired = true; });
        EXPECT_FALSE(first.pending());
        first.cancel();
        EXPECT_TRUE(h.pending());
        eq.runToCompletion();
        EXPECT_TRUE(fired);
    }
}

TEST(SmallFunction, InlineAndHeapCaptures)
{
    int hits = 0;
    SmallFunction<void(), 48> small([&hits]() { ++hits; });
    EXPECT_TRUE(bool(small));
    small();
    EXPECT_EQ(hits, 1);

    // Oversized capture takes the heap path; still callable and
    // move-correct.
    struct Big
    {
        uint64_t data[16] = {};
    } big;
    big.data[0] = 7;
    SmallFunction<void(), 48> large([&hits, big]() {
        hits += int(big.data[0]);
    });
    SmallFunction<void(), 48> moved = std::move(large);
    EXPECT_FALSE(bool(large));
    moved();
    EXPECT_EQ(hits, 8);
}

TEST(SmallFunction, MoveOnlyCapture)
{
    auto p = std::make_unique<int>(41);
    SmallFunction<int(), 48> fn(
        [p = std::move(p)]() { return *p + 1; });
    SmallFunction<int(), 48> fn2 = std::move(fn);
    EXPECT_EQ(fn2(), 42);
}

TEST(Resource, FifoService)
{
    EventQueue eq;
    Resource res(eq, "r");
    std::vector<int> done;
    res.submit(10, [&]() { done.push_back(1); });
    res.submit(10, [&]() { done.push_back(2); });
    res.submit(10, [&]() { done.push_back(3); });
    eq.runToCompletion();
    EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u); // serialized
    EXPECT_EQ(res.completed(), 3u);
    EXPECT_EQ(res.busyTicks(), 30u);
    EXPECT_EQ(res.contendedJobs(), 2u);
}

TEST(Resource, MultiServerParallelism)
{
    EventQueue eq;
    Resource res(eq, "r", 2);
    int done = 0;
    for (int i = 0; i < 4; ++i)
        res.submit(10, [&]() { ++done; });
    eq.runToCompletion();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(eq.now(), 20u); // two waves of two
}

TEST(Resource, CompletionChainSubmitQueuesBehindWaiters)
{
    // A submit() issued from a completion callback sees a free server
    // (the completing one) while earlier arrivals still wait in the
    // queue; strict FIFO demands it line up behind them.
    EventQueue eq;
    Resource res(eq, "r");
    std::vector<int> done;
    res.submit(10, [&]() {
        done.push_back(1);
        res.submit(10, [&]() { done.push_back(3); });
    });
    res.submit(10, [&]() { done.push_back(2); });
    eq.runToCompletion();
    EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
}

TEST(Resource, SubmitPreemptOvertakesQueue)
{
    // submitPreempt() keeps the pre-FIFO-fix admission: a free server
    // is taken immediately even while earlier jobs wait — the
    // dispatch discipline of a completion chain that reuses its own
    // core (vCPU run chains).
    EventQueue eq;
    Resource res(eq, "r");
    std::vector<int> done;
    res.submit(10, [&]() {
        done.push_back(1);
        res.submitPreempt(10, [&]() { done.push_back(2); });
    });
    res.submit(10, [&]() { done.push_back(3); });
    eq.runToCompletion();
    EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
}

TEST(Resource, WaitHistogramRecordsQueueing)
{
    EventQueue eq;
    Resource res(eq, "r");
    res.submit(10 * kMicrosecond, []() {});
    res.submit(10 * kMicrosecond, []() {});
    eq.runToCompletion();
    // Second job waited 10 us.
    EXPECT_DOUBLE_EQ(res.waitHistogram().max(), 10.0);
    EXPECT_DOUBLE_EQ(res.waitHistogram().min(), 0.0);
}

TEST(Resource, DeferredServiceTimeComputedAtStart)
{
    EventQueue eq;
    Resource res(eq, "r");
    int batch = 0;
    // While the first job runs, "batch" grows; the deferred job reads
    // it when service begins.
    Tick measured = 0;
    res.submit(100, [&]() {});
    res.submitDeferred(
        [&]() { return Tick(batch * 10); },
        [&]() { measured = eq.now(); });
    eq.schedule(50, [&]() { batch = 7; });
    eq.runToCompletion();
    EXPECT_EQ(measured, 170u); // 100 + 7*10
}

TEST(Resource, UtilizationSampler)
{
    EventQueue eq;
    Resource res(eq, "r");
    UtilizationSampler sampler(eq, res, 100, 1000);
    // Busy 50% of each window.
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(i * 100, [&]() { res.submit(50, []() {}); });
    eq.runUntil(1000);
    const auto &pts = sampler.series().points();
    ASSERT_GE(pts.size(), 9u);
    for (size_t i = 0; i < 9; ++i)
        EXPECT_NEAR(pts[i].value, 50.0, 1e-9) << "window " << i;
}

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, UniformBounds)
{
    Random r(1);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, UniformIntInclusiveBounds)
{
    Random r(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = r.uniformInt(3, 7);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 7u);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, ExponentialMean)
{
    Random r(3);
    double acc = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        acc += r.exponential(5.0);
    EXPECT_NEAR(acc / n, 5.0, 0.1);
}

TEST(Random, NormalMoments)
{
    Random r(4);
    double acc = 0, acc2 = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double v = r.normal(10.0, 2.0);
        acc += v;
        acc2 += v * v;
    }
    double mean = acc / n;
    double var = acc2 / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Random, LognormalMeanTargets)
{
    Random r(5);
    double acc = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i)
        acc += r.lognormalMean(28.0 * 1024, 1.0);
    EXPECT_NEAR(acc / n / 1024.0, 28.0, 1.0);
}

TEST(Random, BernoulliFrequency)
{
    Random r(6);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.25);
    EXPECT_NEAR(double(hits) / n, 0.25, 0.01);
}

TEST(Random, SplitStreamsDiffer)
{
    Random a(7);
    Random b = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Simulation, StatsAndScheduling)
{
    Simulation sim(9);
    int fired = 0;
    sim.after(10 * kMicrosecond, [&]() { ++fired; });
    sim.telemetry().metrics.counter("x").inc();
    sim.runUntil(kSecond);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), kSecond);
    EXPECT_EQ(sim.telemetry().metrics.count("x"), 1u);
}

// -- batched same-tick firing -------------------------------------------

TEST(EventQueue, SameTickBatchPreservesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Interleave two ticks; within each tick, insertion order rules.
    for (int i = 0; i < 4; ++i) {
        eq.schedule(20, [&order, i]() { order.push_back(10 + i); });
        eq.schedule(10, [&order, i]() { order.push_back(i); });
    }
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
}

TEST(EventQueue, EventsScheduledDuringBatchRunAfterIt)
{
    // An event scheduled with zero delay from inside a same-tick batch
    // must run after every member of the current batch — exactly what
    // one-at-a-time stepping produced (it gets a larger seq).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() {
        order.push_back(0);
        eq.schedule(0, [&order]() { order.push_back(99); });
    });
    eq.schedule(10, [&order]() { order.push_back(1); });
    eq.schedule(10, [&order]() { order.push_back(2); });
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 99}));
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, CancellationWithinBatchIsHonored)
{
    // A batch member cancelling a later same-tick event must prevent
    // its execution even though both were popped together.
    EventQueue eq;
    bool victim_ran = false;
    EventHandle victim;
    eq.schedule(10, [&]() { victim.cancel(); });
    victim = eq.schedule(10, [&victim_ran]() { victim_ran = true; });
    bool survivor_ran = false;
    eq.schedule(10, [&survivor_ran]() { survivor_ran = true; });
    eq.runToCompletion();
    EXPECT_FALSE(victim_ran);
    EXPECT_TRUE(survivor_ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelChurnWithBatchesKeepsHeapTidy)
{
    // cancelSlot counts a lazily-deleted heap entry; when the entry is
    // instead discarded from a popped batch the count must be squared
    // so compaction heuristics never see phantom stale entries.
    EventQueue eq;
    for (int round = 0; round < 200; ++round) {
        EventHandle h;
        eq.schedule(10, [&h]() { h.cancel(); });
        h = eq.schedule(10, []() {});
        eq.runUntil(eq.now() + 20);
    }
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, BatchedAndSteppedExecutionAgree)
{
    // The same randomized schedule run via step() and via runUntil()
    // must produce identical execution orders.
    auto build = [](EventQueue &eq, std::vector<int> &order) {
        Random r(123);
        for (int i = 0; i < 500; ++i) {
            Tick when = r.uniformInt(0, 19);
            eq.schedule(when, [&order, i]() { order.push_back(i); });
        }
    };
    EventQueue stepped;
    std::vector<int> stepped_order;
    build(stepped, stepped_order);
    while (stepped.step()) {
    }
    EventQueue batched;
    std::vector<int> batched_order;
    build(batched, batched_order);
    batched.runToCompletion();
    EXPECT_EQ(stepped_order, batched_order);
}

// -- seed-sequence API --------------------------------------------------

TEST(Random, LabeledSplitIsDeterministicAndConst)
{
    Random a(99);
    Random b(99);
    Random sub_a = a.split("fault");
    Random sub_b = b.split("fault");
    // Same (state, label) -> same substream.
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(sub_a.next(), sub_b.next());
    // Deriving the substream did not disturb the parents.
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentLabelsGiveIndependentStreams)
{
    Random parent(7);
    Random x = parent.split("fault");
    Random y = parent.split("workload");
    Random z = parent.split(uint64_t(12345));
    int same_xy = 0, same_xz = 0;
    for (int i = 0; i < 100; ++i) {
        uint64_t vx = x.next();
        same_xy += vx == y.next();
        same_xz += vx == z.next();
    }
    EXPECT_LT(same_xy, 5);
    EXPECT_LT(same_xz, 5);
}

TEST(Random, JumpPartitionsTheSequence)
{
    // jump() advances 2^128 steps: the jumped stream must not collide
    // with a fresh copy's next draws, and jumping twice from the same
    // state lands in the same place.
    Random a(31);
    Random b = a; // copy shares state
    b.jump();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);

    Random c(31);
    c.jump();
    Random d(31);
    d.jump();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(c.next(), d.next());
}

TEST(Random, SplitOfZeroRatePlanDrawsNothingFromParent)
{
    // The fault-injection pattern: deriving a labeled substream and
    // never drawing from it must leave the parent's sequence exactly
    // as if the substream never existed.
    Random with(5);
    Random without(5);
    Random unused = with.split("fault");
    (void)unused;
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(with.next(), without.next());
}

} // namespace
} // namespace vrio::sim
