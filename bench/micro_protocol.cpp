/**
 * @file
 * Google-benchmark microbenchmarks of the protocol-level primitives:
 * the real code that would sit on vRIO's data path (encapsulation,
 * TSO splitting, reassembly, virtqueue operations, AES, CRC32,
 * steering).  These measure *host* (benchmark machine) performance of
 * the implementations, independent of the simulator.
 */
#include <benchmark/benchmark.h>

#include "crypto/modes.hpp"
#include "iohost/steering.hpp"
#include "net/tso.hpp"
#include "sim/random.hpp"
#include "transport/encap.hpp"
#include "transport/reassembly.hpp"
#include "transport/segmenter.hpp"
#include "util/crc32.hpp"
#include "virtio/virtqueue.hpp"

using namespace vrio;

namespace {

transport::TransportHeader
netHeader(uint32_t len)
{
    transport::TransportHeader hdr;
    hdr.type = transport::MsgType::NetOut;
    hdr.device_id = 1;
    hdr.total_len = len;
    return hdr;
}

void
BM_Encapsulate(benchmark::State &state)
{
    Bytes payload(size_t(state.range(0)), 0x42);
    auto src = net::MacAddress::local(1);
    auto dst = net::MacAddress::local(2);
    uint32_t id = 0;
    for (auto _ : state) {
        auto frame = transport::encapsulate(
            src, dst, ++id, netHeader(uint32_t(payload.size())),
            payload);
        benchmark::DoNotOptimize(frame);
    }
    state.SetBytesProcessed(state.iterations() *
                            int64_t(payload.size()));
}
BENCHMARK(BM_Encapsulate)->Arg(64)->Arg(1500)->Arg(16384)->Arg(65000);

void
BM_TsoSegment64K(benchmark::State &state)
{
    Bytes payload(65000, 0x42);
    auto frame = transport::encapsulate(net::MacAddress::local(1),
                                        net::MacAddress::local(2), 1,
                                        netHeader(65000), payload);
    uint32_t mtu = uint32_t(state.range(0));
    for (auto _ : state) {
        auto segs = net::tsoSegment(*frame, mtu);
        benchmark::DoNotOptimize(segs);
    }
    state.SetBytesProcessed(state.iterations() * 65000);
}
BENCHMARK(BM_TsoSegment64K)->Arg(1500)->Arg(8100);

void
BM_ReassembleMessage(benchmark::State &state)
{
    Bytes payload(size_t(state.range(0)), 0x42);
    auto frame = transport::encapsulate(
        net::MacAddress::local(1), net::MacAddress::local(2), 1,
        netHeader(uint32_t(payload.size())), payload);
    auto segs = net::tsoSegment(*frame, net::kMtuVrioJumbo);

    sim::EventQueue eq;
    transport::Reassembler reasm(eq, net::kMtuVrioJumbo);
    for (auto _ : state) {
        bool done = false;
        for (const auto &seg : segs) {
            if (auto msg = reasm.feed(*seg))
                done = true;
        }
        benchmark::DoNotOptimize(done);
    }
    state.SetBytesProcessed(state.iterations() *
                            int64_t(payload.size()));
}
BENCHMARK(BM_ReassembleMessage)->Arg(4096)->Arg(65000);

void
BM_SegmentLargeRequest(benchmark::State &state)
{
    Bytes payload(256 * 1024, 0x55);
    transport::TransportHeader proto;
    proto.type = transport::MsgType::BlkReq;
    for (auto _ : state) {
        auto parts = transport::segmentRequest(proto, payload);
        benchmark::DoNotOptimize(parts);
    }
    state.SetBytesProcessed(state.iterations() * 256 * 1024);
}
BENCHMARK(BM_SegmentLargeRequest);

void
BM_VirtqueueRoundTrip(benchmark::State &state)
{
    virtio::GuestMemory mem(1 << 20);
    virtio::DriverQueue drv(mem, 256);
    virtio::DeviceQueue dev(mem, drv.ringAddr(), 256);
    uint64_t buf = mem.alloc(2048);
    for (auto _ : state) {
        auto head = drv.addChain({{buf, 2048}}, {});
        auto chain = dev.popAvail();
        dev.pushUsed(chain->head, 0);
        auto used = drv.popUsed();
        benchmark::DoNotOptimize(used);
        benchmark::DoNotOptimize(head);
    }
}
BENCHMARK(BM_VirtqueueRoundTrip);

void
BM_AesCtr(benchmark::State &state)
{
    Bytes key(32, 0x11);
    crypto::Aes aes(key);
    // In place from a run-time odd offset, as the encryption service
    // runs it on unaligned payloads.
    size_t offset = 1;
    benchmark::DoNotOptimize(offset);
    Bytes buf(size_t(state.range(0)) + offset, 0x42);
    auto data = std::span<uint8_t>(buf).subspan(offset);
    for (auto _ : state) {
        crypto::ctrXor(aes, 7, data);
        benchmark::DoNotOptimize(data.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * int64_t(data.size()));
}
// One block and 63 B (both shorter than one 8-block step), an MTU
// packet (steps plus a partial tail), a 4 KiB sector run and a 64 KiB
// request.
BENCHMARK(BM_AesCtr)
    ->Arg(16)
    ->Arg(63)
    ->Arg(1500)
    ->Arg(4096)
    ->Arg(65536);

void
BM_Crc32(benchmark::State &state)
{
    // Start at an odd offset, kept a run-time value, so the unaligned
    // loads are timed along with the short-input and tail paths.
    size_t offset = 1;
    benchmark::DoNotOptimize(offset);
    Bytes buf(size_t(state.range(0)) + offset, 0x42);
    auto data = std::span<const uint8_t>(buf).subspan(offset);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(data));
    state.SetBytesProcessed(state.iterations() * int64_t(data.size()));
}
// 44 is a bare transport header, 4140 a header plus a 4 KiB block.
BENCHMARK(BM_Crc32)
    ->Arg(44)
    ->Arg(63)
    ->Arg(64)
    ->Arg(1500)
    ->Arg(4096)
    ->Arg(4140)
    ->Arg(65536);

void
BM_SteeringDecision(benchmark::State &state)
{
    iohost::SteeringPolicy policy(4);
    sim::Random rng(9);
    std::vector<std::pair<uint32_t, unsigned>> flying;
    for (auto _ : state) {
        uint32_t dev = uint32_t(rng.uniformInt(0, 31));
        flying.emplace_back(dev, policy.steer(dev));
        if (flying.size() > 16) {
            auto [d, w] = flying.front();
            flying.erase(flying.begin());
            policy.complete(d, w);
        }
    }
}
BENCHMARK(BM_SteeringDecision);

} // namespace

BENCHMARK_MAIN();
