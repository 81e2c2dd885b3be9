/**
 * @file
 * Unit and property tests for guest memory and the split virtqueue.
 */
#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "virtio/guest_memory.hpp"
#include "virtio/virtio_blk.hpp"
#include "virtio/virtio_net.hpp"
#include "virtio/virtqueue.hpp"

namespace vrio::virtio {
namespace {

TEST(GuestMemory, AllocRespectAlignment)
{
    GuestMemory mem(4096);
    uint64_t a = mem.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    uint64_t b = mem.alloc(10, 256);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_EQ(mem.allocationCount(), 2u);
}

TEST(GuestMemory, FreeCoalescesExtents)
{
    GuestMemory mem(1024);
    uint64_t a = mem.alloc(256);
    uint64_t b = mem.alloc(256);
    uint64_t c = mem.alloc(256);
    (void)b;
    mem.free(a);
    mem.free(c);
    mem.free(b);
    // After coalescing we can allocate the whole arena again.
    uint64_t big = mem.alloc(1024, 1);
    EXPECT_EQ(big, 0u);
}

TEST(GuestMemory, ReadWriteRoundTrip)
{
    GuestMemory mem(1024);
    uint64_t a = mem.alloc(16);
    Bytes data = {1, 2, 3, 4};
    mem.write(a, data);
    EXPECT_EQ(mem.read(a, 4), data);
    mem.writeU64(a + 8, 0x1122334455667788ull);
    EXPECT_EQ(mem.readU64(a + 8), 0x1122334455667788ull);
    mem.writeU32(a, 0xdeadbeef);
    EXPECT_EQ(mem.readU32(a), 0xdeadbeefu);
    mem.writeU16(a, 0xbeef);
    EXPECT_EQ(mem.readU16(a), 0xbeef);
}

TEST(GuestMemory, OutOfBoundsPanics)
{
    GuestMemory mem(64);
    EXPECT_DEATH(mem.read(60, 8), "out of bounds");
    EXPECT_DEATH(mem.writeU64(63, 1), "out of bounds");
}

TEST(GuestMemory, StoreReadsZeroUntilWritten)
{
    // Not a page multiple, so the store ends inside a page.
    const size_t size = (1u << 20) + 8;
    GuestMemory mem(size);
    EXPECT_EQ(mem.read(0, 64), Bytes(64, 0));
    EXPECT_EQ(mem.read(size / 2, 64), Bytes(64, 0));
    EXPECT_EQ(mem.read(size - 8, 8), Bytes(8, 0));
    EXPECT_EQ(mem.readU64(size - 8), 0u);

    // Write-then-read round-trips up to the last byte.
    Bytes data = {9, 8, 7, 6, 5, 4, 3, 2};
    mem.write(size - 8, data);
    EXPECT_EQ(mem.read(size - 8, 8), data);
    EXPECT_EQ(mem.read(size - 16, 8), Bytes(8, 0));

    // fill() re-zeroes, as a queue ring's set-up relies on.
    mem.fill(size - 8, 8);
    EXPECT_EQ(mem.read(size - 8, 8), Bytes(8, 0));

    // Bounds checks still stop at the declared size.
    EXPECT_DEATH(mem.read(size - 8, 9), "out of bounds");
    EXPECT_DEATH(mem.write(size, Bytes{1}), "out of bounds");
    EXPECT_DEATH(mem.fill(size - 1, 2), "out of bounds");
    EXPECT_DEATH(mem.window(size, 1), "out of bounds");
}

TEST(GuestMemory, DoubleFreePanics)
{
    GuestMemory mem(1024);
    uint64_t a = mem.alloc(16);
    mem.free(a);
    EXPECT_DEATH(mem.free(a), "unallocated");
}

TEST(GuestMemory, ExhaustionPanics)
{
    GuestMemory mem(128);
    mem.alloc(100);
    EXPECT_DEATH(mem.alloc(100), "exhausted");
}

TEST(GuestMemory, AllocFreeStress)
{
    GuestMemory mem(1u << 16);
    sim::Random rng(11);
    std::vector<uint64_t> live;
    for (int i = 0; i < 2000; ++i) {
        if (live.empty() ||
            (rng.bernoulli(0.6) && mem.bytesAllocated() < (1u << 15))) {
            live.push_back(mem.alloc(rng.uniformInt(1, 512)));
        } else {
            size_t idx = rng.uniformInt(0, live.size() - 1);
            mem.free(live[idx]);
            live.erase(live.begin() + idx);
        }
    }
    for (uint64_t a : live)
        mem.free(a);
    EXPECT_EQ(mem.bytesAllocated(), 0u);
    // Fully coalesced after everything is freed.
    EXPECT_EQ(mem.alloc(1u << 16, 1), 0u);
}

TEST(VirtqLayout, FootprintMatchesSpecLayout)
{
    // Spec example: qsize=8 -> desc 128B, avail 2+2+16+2=22 -> pad to
    // 152? desc=128, avail at 128 (aligned), used at align4(128+22)=152.
    EXPECT_EQ(VirtqLayout::footprint(8), 152 + (4 + 8 * 8 + 2));
}

class VirtqueueTest : public ::testing::Test
{
  protected:
    GuestMemory mem{1 << 20};
    DriverQueue driver{mem, 16};
    DeviceQueue device{mem, driver.ringAddr(), 16};

    uint64_t
    makeBuffer(const Bytes &content)
    {
        uint64_t addr = mem.alloc(content.size());
        mem.write(addr, content);
        return addr;
    }
};

TEST_F(VirtqueueTest, SingleOutChainRoundTrip)
{
    Bytes msg = {'h', 'e', 'l', 'l', 'o'};
    uint64_t addr = makeBuffer(msg);
    auto head = driver.addChain({{addr, uint32_t(msg.size())}}, {});
    ASSERT_TRUE(head.has_value());

    ASSERT_TRUE(device.hasAvail());
    auto chain = device.popAvail();
    ASSERT_TRUE(chain.has_value());
    EXPECT_EQ(chain->head, *head);
    EXPECT_EQ(device.gatherOut(*chain), msg);
    EXPECT_EQ(chain->outLen(), msg.size());
    EXPECT_EQ(chain->inLen(), 0u);

    device.pushUsed(chain->head, 0);
    ASSERT_TRUE(driver.hasUsed());
    auto used = driver.popUsed();
    ASSERT_TRUE(used.has_value());
    EXPECT_EQ(used->head, *head);
}

TEST_F(VirtqueueTest, DeviceWritesIntoInBuffers)
{
    uint64_t in_addr = mem.alloc(8);
    auto head = driver.addChain({}, {{in_addr, 8}});
    ASSERT_TRUE(head.has_value());

    auto chain = device.popAvail();
    ASSERT_TRUE(chain);
    Bytes resp = {9, 8, 7};
    uint32_t written = device.scatterIn(*chain, resp);
    EXPECT_EQ(written, 3u);
    device.pushUsed(chain->head, written);

    auto used = driver.popUsed();
    ASSERT_TRUE(used);
    EXPECT_EQ(used->len, 3u);
    EXPECT_EQ(mem.read(in_addr, 3), resp);
}

TEST_F(VirtqueueTest, MixedChainOrderingAndFlags)
{
    Bytes req = {1, 2, 3, 4};
    uint64_t out_addr = makeBuffer(req);
    uint64_t in1 = mem.alloc(2);
    uint64_t in2 = mem.alloc(2);
    auto head = driver.addChain({{out_addr, 4}}, {{in1, 2}, {in2, 2}});
    ASSERT_TRUE(head);

    auto chain = device.popAvail();
    ASSERT_TRUE(chain);
    ASSERT_EQ(chain->descs.size(), 3u);
    EXPECT_EQ(chain->descs[0].flags & kDescFlagWrite, 0);
    EXPECT_TRUE(chain->descs[1].flags & kDescFlagWrite);
    EXPECT_TRUE(chain->descs[2].flags & kDescFlagWrite);
    EXPECT_EQ(device.gatherOut(*chain), req);

    // Scatter across the two in-buffers.
    Bytes resp = {5, 6, 7, 8};
    EXPECT_EQ(device.scatterIn(*chain, resp), 4u);
    EXPECT_EQ(mem.read(in1, 2), (Bytes{5, 6}));
    EXPECT_EQ(mem.read(in2, 2), (Bytes{7, 8}));
}

TEST_F(VirtqueueTest, DescriptorExhaustionReturnsNullopt)
{
    uint64_t addr = mem.alloc(16);
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(driver.addChain({{addr, 1}}, {}));
    EXPECT_EQ(driver.freeDescCount(), 0u);
    EXPECT_FALSE(driver.addChain({{addr, 1}}, {}));
}

TEST_F(VirtqueueTest, DescriptorsRecycleAfterPopUsed)
{
    uint64_t addr = mem.alloc(16);
    // Exhaust with 8 two-descriptor chains.
    std::vector<uint16_t> heads;
    for (int i = 0; i < 8; ++i) {
        auto h = driver.addChain({{addr, 1}, {addr + 1, 1}}, {});
        ASSERT_TRUE(h);
        heads.push_back(*h);
    }
    EXPECT_EQ(driver.freeDescCount(), 0u);
    for (int i = 0; i < 8; ++i) {
        auto chain = device.popAvail();
        ASSERT_TRUE(chain);
        device.pushUsed(chain->head, 0);
    }
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(driver.popUsed());
    EXPECT_EQ(driver.freeDescCount(), 16u);
    // Queue is usable again.
    EXPECT_TRUE(driver.addChain({{addr, 1}}, {}));
}

TEST_F(VirtqueueTest, IndirectChainOccupiesOneSlot)
{
    Bytes req = {1, 2, 3, 4};
    uint64_t out_addr = makeBuffer(req);
    uint64_t in1 = mem.alloc(2);
    uint64_t in2 = mem.alloc(2);
    uint16_t before = driver.freeDescCount();
    auto head = driver.addChainIndirect({{out_addr, 4}},
                                        {{in1, 2}, {in2, 2}});
    ASSERT_TRUE(head);
    EXPECT_EQ(driver.freeDescCount(), before - 1);

    auto chain = device.popAvail();
    ASSERT_TRUE(chain);
    ASSERT_EQ(chain->descs.size(), 3u); // the table was expanded
    EXPECT_EQ(device.gatherOut(*chain), req);
    EXPECT_EQ(chain->inLen(), 4u);

    Bytes resp = {9, 8, 7, 6};
    EXPECT_EQ(device.scatterIn(*chain, resp), 4u);
    device.pushUsed(chain->head, 4);
    auto used = driver.popUsed();
    ASSERT_TRUE(used);
    EXPECT_EQ(driver.freeDescCount(), before);
    EXPECT_EQ(mem.read(in1, 2), (Bytes{9, 8}));
    EXPECT_EQ(mem.read(in2, 2), (Bytes{7, 6}));
}

TEST_F(VirtqueueTest, IndirectTableMemoryIsReclaimed)
{
    uint64_t addr = mem.alloc(8);
    size_t live_before = mem.allocationCount();
    for (int i = 0; i < 100; ++i) {
        auto head = driver.addChainIndirect({{addr, 8}}, {});
        ASSERT_TRUE(head);
        auto chain = device.popAvail();
        device.pushUsed(chain->head, 0);
        ASSERT_TRUE(driver.popUsed());
    }
    EXPECT_EQ(mem.allocationCount(), live_before);
}

TEST_F(VirtqueueTest, LongIndirectChainBeyondRingSize)
{
    // 32 buffers through a 16-entry ring: impossible with direct
    // chains, trivial with an indirect table.
    std::vector<virtio::BufferSpec> out;
    Bytes expect;
    for (int i = 0; i < 32; ++i) {
        Bytes content = {uint8_t(i), uint8_t(i + 1)};
        out.push_back({makeBuffer(content), 2});
        expect.insert(expect.end(), content.begin(), content.end());
    }
    auto head = driver.addChainIndirect(out, {});
    ASSERT_TRUE(head);
    auto chain = device.popAvail();
    ASSERT_TRUE(chain);
    EXPECT_EQ(chain->descs.size(), 32u);
    EXPECT_EQ(device.gatherOut(*chain), expect);
    device.pushUsed(chain->head, 0);
    EXPECT_TRUE(driver.popUsed().has_value());
}

TEST_F(VirtqueueTest, IndexWrapAround)
{
    // Push/pop more than 2^16 elements through a small ring to cross
    // the 16-bit avail/used index wrap at least once.
    uint64_t addr = mem.alloc(4);
    for (int round = 0; round < 70000; round += 1) {
        auto h = driver.addChain({{addr, 4}}, {});
        ASSERT_TRUE(h);
        auto chain = device.popAvail();
        ASSERT_TRUE(chain);
        device.pushUsed(chain->head, 0);
        ASSERT_TRUE(driver.popUsed());
    }
    EXPECT_EQ(driver.freeDescCount(), 16u);
}

TEST(VirtqueueProperty, RandomizedChainsRoundTrip)
{
    GuestMemory mem(1 << 20);
    DriverQueue driver(mem, 64);
    DeviceQueue device(mem, driver.ringAddr(), 64);
    sim::Random rng(1234);

    for (int iter = 0; iter < 500; ++iter) {
        size_t out_n = rng.uniformInt(0, 3);
        size_t in_n = rng.uniformInt(out_n == 0 ? 1 : 0, 3);
        std::vector<BufferSpec> out, in;
        Bytes expect;
        std::vector<uint64_t> allocs;
        for (size_t i = 0; i < out_n; ++i) {
            uint32_t len = uint32_t(rng.uniformInt(1, 64));
            uint64_t addr = mem.alloc(len);
            allocs.push_back(addr);
            Bytes content(len);
            for (auto &b : content)
                b = uint8_t(rng.next());
            mem.write(addr, content);
            expect.insert(expect.end(), content.begin(), content.end());
            out.push_back({addr, len});
        }
        uint32_t in_capacity = 0;
        for (size_t i = 0; i < in_n; ++i) {
            uint32_t len = uint32_t(rng.uniformInt(1, 64));
            uint64_t addr = mem.alloc(len);
            allocs.push_back(addr);
            in.push_back({addr, len});
            in_capacity += len;
        }

        auto head = driver.addChain(out, in);
        ASSERT_TRUE(head);
        auto chain = device.popAvail();
        ASSERT_TRUE(chain);
        EXPECT_EQ(device.gatherOut(*chain), expect);

        Bytes resp(rng.uniformInt(0, in_capacity));
        for (auto &b : resp)
            b = uint8_t(rng.next());
        uint32_t written = device.scatterIn(*chain, resp);
        EXPECT_EQ(written, resp.size());
        device.pushUsed(chain->head, written);
        auto used = driver.popUsed();
        ASSERT_TRUE(used);
        EXPECT_EQ(used->len, written);

        // Verify scattered content.
        Bytes got;
        for (const auto &b : in) {
            auto part = mem.read(b.addr, b.len);
            got.insert(got.end(), part.begin(), part.end());
        }
        got.resize(resp.size());
        EXPECT_EQ(got, resp);

        for (uint64_t a : allocs)
            mem.free(a);
    }
}

TEST(VirtioNetHdr, CodecRoundTrip)
{
    VirtioNetHdr h;
    h.flags = kNetHdrFlagNeedsCsum;
    h.gso_type = NetGso::TcpV4;
    h.hdr_len = 54;
    h.gso_size = 1448;
    h.csum_start = 34;
    h.csum_offset = 16;
    h.num_buffers = 2;

    Bytes buf;
    ByteWriter w(buf);
    h.encode(w);
    ASSERT_EQ(buf.size(), VirtioNetHdr::kSize);

    ByteReader r(buf);
    VirtioNetHdr d = VirtioNetHdr::decode(r);
    EXPECT_EQ(d.flags, h.flags);
    EXPECT_EQ(d.gso_type, h.gso_type);
    EXPECT_EQ(d.hdr_len, h.hdr_len);
    EXPECT_EQ(d.gso_size, h.gso_size);
    EXPECT_EQ(d.num_buffers, h.num_buffers);
}

TEST(VirtioBlkReq, CodecRoundTrip)
{
    VirtioBlkReq req;
    req.type = BlkType::Out;
    req.sector = 0x123456789ull;

    Bytes buf;
    ByteWriter w(buf);
    req.encode(w);
    ASSERT_EQ(buf.size(), VirtioBlkReq::kSize);

    ByteReader r(buf);
    VirtioBlkReq d = VirtioBlkReq::decode(r);
    EXPECT_EQ(d.type, BlkType::Out);
    EXPECT_EQ(d.sector, req.sector);
}

} // namespace
} // namespace vrio::virtio
