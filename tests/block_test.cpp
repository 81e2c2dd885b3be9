/**
 * @file
 * Block substrate tests: device integrity/timing, disk scheduler
 * invariant, zero-copy alignment decomposition.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "block/alignment.hpp"
#include "block/disk_scheduler.hpp"
#include "block/ram_disk.hpp"
#include "block/ssd_model.hpp"
#include "sim/random.hpp"

namespace vrio::block {
namespace {

using virtio::BlkStatus;
using virtio::BlkType;
using virtio::kSectorSize;

Bytes
pattern(size_t n, uint8_t seed)
{
    Bytes out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = uint8_t(seed + i * 13);
    return out;
}

TEST(RamDisk, WriteThenReadRoundTrip)
{
    sim::Simulation sim;
    RamDisk disk(sim, "rd", {.capacity_bytes = 1u << 20});
    Bytes data = pattern(4096, 1);

    bool write_done = false;
    disk.submit({BlkType::Out, 8, 8, data},
                [&](BlkStatus s, Bytes) {
                    EXPECT_EQ(s, BlkStatus::Ok);
                    write_done = true;
                });
    sim.runToCompletion();
    ASSERT_TRUE(write_done);

    Bytes got;
    disk.submit({BlkType::In, 8, 8, {}},
                [&](BlkStatus s, Bytes d) {
                    EXPECT_EQ(s, BlkStatus::Ok);
                    got = std::move(d);
                });
    sim.runToCompletion();
    EXPECT_EQ(got, data);
    EXPECT_EQ(disk.completedRequests(), 2u);
}

TEST(RamDisk, OutOfRangeFails)
{
    sim::Simulation sim;
    RamDisk disk(sim, "rd", {.capacity_bytes = 1u << 20});
    BlkStatus status = BlkStatus::Ok;
    disk.submit({BlkType::In, disk.capacitySectors(), 1, {}},
                [&](BlkStatus s, Bytes) { status = s; });
    sim.runToCompletion();
    EXPECT_EQ(status, BlkStatus::IoErr);
}

TEST(RamDisk, TimingIncludesBandwidth)
{
    sim::Simulation sim;
    RamDiskConfig cfg;
    cfg.capacity_bytes = 1u << 20;
    cfg.request_latency = 6 * sim::kMicrosecond;
    cfg.gbps = 80.0;
    RamDisk disk(sim, "rd", cfg);
    sim::Tick done_at = 0;
    // 80KB read: 80*1024*8 bits / 80 Gbps = 8.192 us + 6 us.
    disk.submit({BlkType::In, 0, 160, {}},
                [&](BlkStatus, Bytes) { done_at = sim.now(); });
    sim.runToCompletion();
    EXPECT_EQ(done_at,
              6 * sim::kMicrosecond +
                  sim::bytesToTicks(160 * kSectorSize, 80.0));
}

TEST(RamDisk, FlushCompletesOk)
{
    sim::Simulation sim;
    RamDisk disk(sim, "rd", {.capacity_bytes = 1u << 20});
    BlkStatus status = BlkStatus::IoErr;
    disk.submit({BlkType::Flush, 0, 0, {}},
                [&](BlkStatus s, Bytes) { status = s; });
    sim.runToCompletion();
    EXPECT_EQ(status, BlkStatus::Ok);
}

TEST(RamDisk, PeekPokeBypassTiming)
{
    sim::Simulation sim;
    RamDisk disk(sim, "rd", {.capacity_bytes = 1u << 20});
    Bytes data = pattern(kSectorSize, 3);
    disk.poke(5, data);
    EXPECT_EQ(disk.peek(5, 1), data);
}

TEST(SsdModel, ReadWriteRoundTrip)
{
    sim::Simulation sim;
    SsdConfig cfg = SsdConfig::sata();
    cfg.capacity_bytes = 1u << 20;
    SsdModel ssd(sim, "ssd", cfg);
    Bytes data = pattern(8 * kSectorSize, 9);
    ssd.submit({BlkType::Out, 0, 8, data},
               [&](BlkStatus s, Bytes) { EXPECT_EQ(s, BlkStatus::Ok); });
    sim.runToCompletion();
    Bytes got;
    ssd.submit({BlkType::In, 0, 8, {}},
               [&](BlkStatus, Bytes d) { got = std::move(d); });
    sim.runToCompletion();
    EXPECT_EQ(got, data);
}

TEST(SsdModel, QueueDepthLimitsParallelism)
{
    sim::Simulation sim;
    SsdConfig cfg = SsdConfig::sata();
    cfg.capacity_bytes = 1u << 20;
    cfg.queue_depth = 2;
    cfg.read_latency = 100 * sim::kMicrosecond;
    cfg.gbps = 1e9; // make transfer time negligible
    SsdModel ssd(sim, "ssd", cfg);
    std::vector<sim::Tick> done;
    for (int i = 0; i < 4; ++i) {
        ssd.submit({BlkType::In, uint64_t(i) * 8, 8, {}},
                   [&](BlkStatus, Bytes) { done.push_back(sim.now()); });
    }
    sim.runToCompletion();
    ASSERT_EQ(done.size(), 4u);
    // Two waves: 100us and 200us.
    EXPECT_EQ(done[1], 100 * sim::kMicrosecond);
    EXPECT_EQ(done[3], 200 * sim::kMicrosecond);
}

TEST(SsdModel, PcieIsFasterThanSata)
{
    sim::Simulation sim;
    auto pcie_cfg = SsdConfig::pcieSx300();
    auto sata_cfg = SsdConfig::sata();
    pcie_cfg.capacity_bytes = sata_cfg.capacity_bytes = 1u << 20;
    SsdModel pcie(sim, "pcie", pcie_cfg), sata(sim, "sata", sata_cfg);
    sim::Tick pcie_done = 0, sata_done = 0;
    pcie.submit({BlkType::In, 0, 64, {}},
                [&](BlkStatus, Bytes) { pcie_done = sim.now(); });
    sata.submit({BlkType::In, 0, 64, {}},
                [&](BlkStatus, Bytes) { sata_done = sim.now(); });
    sim.runToCompletion();
    EXPECT_LT(pcie_done, sata_done);
}

// --- Lazily-zeroed backing stores -----------------------------------

/** Submit @p req, run to completion, return the status and data. */
std::pair<BlkStatus, Bytes>
runIo(sim::Simulation &sim, BlockDevice &dev, BlockRequest req)
{
    std::pair<BlkStatus, Bytes> out{BlkStatus::Unsupported, {}};
    dev.submit(std::move(req), [&](BlkStatus s, Bytes d) {
        out = {s, std::move(d)};
    });
    sim.runToCompletion();
    return out;
}

/** Checks every store-backed device must pass, through submit(). */
void
checkStoreSemantics(sim::Simulation &sim, BlockDevice &dev)
{
    uint64_t last = dev.capacitySectors() - 1;
    Bytes zeros(8 * kSectorSize, 0);

    // Never-written sectors read as zeros: first, middle and last.
    EXPECT_EQ(runIo(sim, dev, {BlkType::In, 0, 8, {}}).second, zeros);
    EXPECT_EQ(runIo(sim, dev, {BlkType::In, last / 2, 8, {}}).second,
              zeros);
    auto tail = runIo(sim, dev, {BlkType::In, last, 1, {}});
    EXPECT_EQ(tail.first, BlkStatus::Ok);
    EXPECT_EQ(tail.second, Bytes(kSectorSize, 0));

    // Write-then-read round-trips, up to the last byte of the store.
    Bytes data = pattern(8 * kSectorSize, 7);
    EXPECT_EQ(runIo(sim, dev, {BlkType::Out, last - 7, 8, data}).first,
              BlkStatus::Ok);
    EXPECT_EQ(runIo(sim, dev, {BlkType::In, last - 7, 8, {}}).second, data);
    // Neighbours stay untouched.
    EXPECT_EQ(runIo(sim, dev, {BlkType::In, last - 15, 8, {}}).second,
              zeros);

    // Discard re-zeroes what was written.
    EXPECT_EQ(runIo(sim, dev, {BlkType::Discard, last - 7, 8, {}}).first,
              BlkStatus::Ok);
    EXPECT_EQ(runIo(sim, dev, {BlkType::In, last - 7, 8, {}}).second,
              zeros);

    // One sector past the end is refused, not served from the guard.
    EXPECT_EQ(runIo(sim, dev, {BlkType::In, last, 2, {}}).first,
              BlkStatus::IoErr);
}

TEST(RamDisk, StoreReadsZeroUntilWrittenAndDiscardRezeroes)
{
    sim::Simulation sim;
    RamDisk disk(sim, "rd", {.capacity_bytes = 1u << 20});
    checkStoreSemantics(sim, disk);
}

TEST(SsdModel, StoreReadsZeroUntilWrittenAndDiscardRezeroes)
{
    sim::Simulation sim;
    SsdConfig cfg = SsdConfig::sata();
    cfg.capacity_bytes = 1u << 20;
    SsdModel ssd(sim, "ssd", cfg);
    checkStoreSemantics(sim, ssd);
}

TEST(RamDisk, PeekPokeMirrorWriteStayBoundsChecked)
{
    sim::Simulation sim;
    RamDisk disk(sim, "rd", {.capacity_bytes = 1u << 20});
    uint64_t last = disk.capacitySectors() - 1;
    Bytes one = pattern(kSectorSize, 5);

    EXPECT_EQ(disk.peek(last, 1), Bytes(kSectorSize, 0));
    disk.poke(last, one);
    EXPECT_EQ(disk.peek(last, 1), one);
    EXPECT_DEATH(disk.peek(last, 2), "peek out of range");
    EXPECT_DEATH(disk.poke(last + 1, one), "poke out of range");

    Bytes two = pattern(kSectorSize, 6);
    EXPECT_TRUE(disk.mirrorWrite(last, two));
    EXPECT_EQ(disk.peek(last, 1), two);
    EXPECT_FALSE(disk.mirrorWrite(last + 1, two));
    EXPECT_FALSE(disk.mirrorWrite(last, pattern(2 * kSectorSize, 6)));
    EXPECT_EQ(disk.peek(last, 1), two); // refused writes land nowhere
}

/** VmRSS of this process in KiB, if /proc can be read. */
std::optional<uint64_t>
residentKiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stoull(line.substr(6));
    }
    return std::nullopt;
}

TEST(RamDisk, LargeCapacityCostsNoResidentMemory)
{
    auto before = residentKiB();
    if (!before)
        GTEST_SKIP() << "/proc/self/status is not readable";
    sim::Simulation sim;
    auto disk = std::make_unique<RamDisk>(
        sim, "rd", RamDiskConfig{.capacity_bytes = 1ull << 30});
    // Reading an untouched sector maps the zero page, not a copy.
    EXPECT_EQ(disk->peek(disk->capacitySectors() - 1, 1),
              Bytes(kSectorSize, 0));
    auto after = residentKiB();
    ASSERT_TRUE(after);
    EXPECT_LT(*after - std::min(*after, *before), 16u * 1024)
        << "a 1 GiB RamDisk made " << (*after - *before)
        << " KiB resident";
}

// --- DiskScheduler ---------------------------------------------------

struct SchedulerHarness
{
    struct Outstanding
    {
        BlockRequest req;
        BlockCallback done;
    };
    std::vector<Outstanding> at_device;
    DiskScheduler sched{[this](BlockRequest r, BlockCallback cb) {
        at_device.push_back({std::move(r), std::move(cb)});
    }};

    void
    completeAt(size_t idx)
    {
        auto entry = std::move(at_device[idx]);
        at_device.erase(at_device.begin() + idx);
        entry.done(BlkStatus::Ok, {});
    }
};

TEST(DiskScheduler, NonOverlappingDispatchImmediately)
{
    SchedulerHarness h;
    h.sched.submit({BlkType::In, 0, 8, {}}, [](BlkStatus, Bytes) {});
    h.sched.submit({BlkType::In, 8, 8, {}}, [](BlkStatus, Bytes) {});
    EXPECT_EQ(h.at_device.size(), 2u);
    EXPECT_EQ(h.sched.deferrals(), 0u);
}

TEST(DiskScheduler, OverlappingHeldBack)
{
    SchedulerHarness h;
    int completions = 0;
    h.sched.submit({BlkType::Out, 0, 8, Bytes(8 * kSectorSize)},
                   [&](BlkStatus, Bytes) { ++completions; });
    h.sched.submit({BlkType::In, 4, 8, {}},
                   [&](BlkStatus, Bytes) { ++completions; });
    EXPECT_EQ(h.at_device.size(), 1u);
    EXPECT_EQ(h.sched.pendingCount(), 1u);
    EXPECT_EQ(h.sched.deferrals(), 1u);
    h.completeAt(0);
    EXPECT_EQ(h.at_device.size(), 1u); // deferred one dispatched
    h.completeAt(0);
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(h.sched.inFlight(), 0u);
}

TEST(DiskScheduler, PerBlockOrderPreserved)
{
    SchedulerHarness h;
    std::vector<int> order;
    h.sched.submit({BlkType::Out, 0, 8, Bytes(8 * kSectorSize)},
                   [&](BlkStatus, Bytes) { order.push_back(1); });
    h.sched.submit({BlkType::Out, 0, 8, Bytes(8 * kSectorSize)},
                   [&](BlkStatus, Bytes) { order.push_back(2); });
    h.sched.submit({BlkType::Out, 0, 8, Bytes(8 * kSectorSize)},
                   [&](BlkStatus, Bytes) { order.push_back(3); });
    ASSERT_EQ(h.at_device.size(), 1u);
    h.completeAt(0);
    h.completeAt(0);
    h.completeAt(0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DiskScheduler, SingleOutstandingPerBlockInvariant)
{
    // Property: at no point do two in-flight requests overlap.
    sim::Random rng(77);
    SchedulerHarness h;
    int completions = 0;
    int submitted = 0;
    auto check_invariant = [&]() {
        for (size_t i = 0; i < h.at_device.size(); ++i) {
            for (size_t j = i + 1; j < h.at_device.size(); ++j) {
                ASSERT_FALSE(
                    h.at_device[i].req.overlaps(h.at_device[j].req))
                    << "overlapping in-flight requests";
            }
        }
    };
    for (int step = 0; step < 2000; ++step) {
        if (h.at_device.empty() || rng.bernoulli(0.55)) {
            uint64_t sector = rng.uniformInt(0, 64);
            uint32_t n = uint32_t(rng.uniformInt(1, 16));
            BlkType kind = rng.bernoulli(0.5) ? BlkType::In : BlkType::Out;
            Bytes data(kind == BlkType::Out ? n * kSectorSize : 0);
            h.sched.submit({kind, sector, n, std::move(data)},
                           [&](BlkStatus, Bytes) { ++completions; });
            ++submitted;
        } else {
            h.completeAt(rng.uniformInt(0, h.at_device.size() - 1));
        }
        check_invariant();
    }
    while (!h.at_device.empty())
        h.completeAt(0);
    EXPECT_EQ(completions, submitted);
    EXPECT_EQ(h.sched.pendingCount(), 0u);
}

TEST(DiskScheduler, FlushActsAsBarrier)
{
    SchedulerHarness h;
    std::vector<int> order;
    h.sched.submit({BlkType::In, 0, 8, {}},
                   [&](BlkStatus, Bytes) { order.push_back(1); });
    h.sched.submit({BlkType::Flush, 0, 0, {}},
                   [&](BlkStatus, Bytes) { order.push_back(2); });
    h.sched.submit({BlkType::In, 100, 8, {}},
                   [&](BlkStatus, Bytes) { order.push_back(3); });
    // Only the first read is at the device; flush waits, and the
    // second read waits behind the flush barrier.
    ASSERT_EQ(h.at_device.size(), 1u);
    h.completeAt(0);
    ASSERT_EQ(h.at_device.size(), 1u); // flush dispatched alone
    h.completeAt(0);
    ASSERT_EQ(h.at_device.size(), 1u);
    h.completeAt(0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- Zero-copy alignment ----------------------------------------------

TEST(Alignment, FullyAligned)
{
    auto s = splitForZeroCopy(4096, 8192, 512);
    EXPECT_EQ(s.head_copy, 0u);
    EXPECT_EQ(s.aligned, 8192u);
    EXPECT_EQ(s.tail_copy, 0u);
}

TEST(Alignment, UnalignedEdges)
{
    auto s = splitForZeroCopy(100, 1500, 512);
    EXPECT_EQ(s.head_copy, 412u);   // up to 512
    EXPECT_EQ(s.aligned, 1024u);    // 512..1536
    EXPECT_EQ(s.tail_copy, 64u);    // 1536..1600
    EXPECT_EQ(s.total(), 1500u);
}

TEST(Alignment, TooSmallForAnyAlignedUnit)
{
    auto s = splitForZeroCopy(100, 200, 512);
    EXPECT_EQ(s.head_copy, 200u);
    EXPECT_EQ(s.aligned, 0u);
    EXPECT_EQ(s.copied(), 200u);
}

TEST(Alignment, EmptyExtent)
{
    auto s = splitForZeroCopy(100, 0, 512);
    EXPECT_EQ(s.total(), 0u);
}

class AlignmentProperty
    : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(AlignmentProperty, DecompositionIsExactAndAligned)
{
    uint64_t alignment = GetParam();
    sim::Random rng(alignment);
    for (int i = 0; i < 2000; ++i) {
        uint64_t off = rng.uniformInt(0, 10000);
        uint64_t len = rng.uniformInt(0, 10000);
        auto s = splitForZeroCopy(off, len, alignment);
        ASSERT_EQ(s.total(), len);
        if (s.aligned > 0) {
            uint64_t mid_start = off + s.head_copy;
            ASSERT_EQ(mid_start % alignment, 0u);
            ASSERT_EQ(s.aligned % alignment, 0u);
        }
        ASSERT_LT(s.head_copy, alignment + (s.aligned ? 0 : len));
        ASSERT_LT(s.tail_copy, alignment);
    }
}

INSTANTIATE_TEST_SUITE_P(Alignments, AlignmentProperty,
                         ::testing::Values(512, 4096, 1, 7));

} // namespace
} // namespace vrio::block
