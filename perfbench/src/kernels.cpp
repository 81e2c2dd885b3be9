#include "kernels.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/modes.hpp"
#include "measure.hpp"
#include "net/ether.hpp"
#include "net/frame.hpp"
#include "qos/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "transport/coalesce.hpp"
#include "transport/header.hpp"
#include "util/crc32.hpp"

namespace perfbench {

using namespace vrio;

namespace {

/** Defeats dead-code elimination of kernel results. */
volatile uint64_t g_sink = 0;

Bytes
randomBytes(sim::Random &rng, size_t n)
{
    Bytes b(n);
    for (uint8_t &c : b)
        c = uint8_t(rng.next());
    return b;
}

/**
 * Median over 5 batches of the ns per call of @p body, which performs
 * @p calls_per_body calls.  Each batch runs for about 10 ms.
 */
double
timeKernel(const std::function<void()> &body, double calls_per_body)
{
    body(); // warm caches and lazy state
    Clock::time_point t0 = Clock::now();
    uint64_t n = 0;
    while (secondsBetween(t0, Clock::now()) < 0.002) {
        body();
        ++n;
    }
    double per_body = secondsBetween(t0, Clock::now()) / double(n);
    uint64_t iters = std::max<uint64_t>(1, uint64_t(0.010 / per_body));
    std::vector<double> ns;
    for (int batch = 0; batch < 5; ++batch) {
        Clock::time_point b0 = Clock::now();
        for (uint64_t i = 0; i < iters; ++i)
            body();
        double s = secondsBetween(b0, Clock::now());
        ns.push_back(s * 1e9 / (double(iters) * calls_per_body));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** A sealed-size transport message: header bytes plus @p payload. */
double
sealVerify(sim::Random &rng, size_t payload)
{
    Bytes msg = randomBytes(rng, transport::TransportHeader::kSize + payload);
    return timeKernel(
        [&msg]() {
            transport::sealMessage(msg);
            g_sink = g_sink + uint64_t(transport::verifyMessage(msg));
        },
        1);
}

} // namespace

double
runKernel(std::string_view name, uint64_t seed)
{
    sim::Random rng(seed ^ 0x6b65726e656cull);

    if (name == "sim.kernel.schedule_fire_ns") {
        // Schedule then fire 1024 events whose callbacks capture 32
        // bytes, the typical size of a model closure.
        struct Capture
        {
            uint64_t a, b, c, d;
        };
        sim::EventQueue eq;
        return timeKernel(
            [&eq, &rng]() {
                Capture cap{rng.next(), 1, 2, 3};
                for (int i = 0; i < 1024; ++i)
                    eq.schedule(sim::Tick(1 + (i & 63)), [cap]() {
                        g_sink = g_sink + cap.a + cap.d;
                    });
                eq.runUntil(eq.now() + 64);
            },
            1024);
    }
    if (name == "util.kernel.crc32_4k_ns") {
        Bytes buf = randomBytes(rng, 4096);
        return timeKernel([&buf]() { g_sink = g_sink + crc32(buf); }, 1);
    }
    if (name == "transport.kernel.seal_verify_4k_ns")
        return sealVerify(rng, 4096);
    if (name == "transport.kernel.seal_verify_64_ns")
        return sealVerify(rng, 64);
    if (name == "coalesce.kernel.plan_ns") {
        // One IOhost group's round: 4 adjacent 4 KiB reads from 4 VMs.
        std::vector<transport::CoalesceEntry> group(4);
        uint64_t lba = rng.uniformInt(0, 1 << 20) * 8;
        for (uint32_t i = 0; i < 4; ++i) {
            group[i].device_id = i;
            group[i].serial = rng.next() & 0xffff;
            group[i].blk_type = uint8_t(virtio::BlkType::In);
            group[i].lba = lba + 8 * ((i * 3) % 4);
            group[i].nsectors = 8;
            group[i].arrival = i;
        }
        return timeKernel(
            [&group]() {
                auto runs = transport::planMergedRuns(group, 4);
                g_sink = g_sink + runs.size();
            },
            1);
    }
    if (name == "net.kernel.make_frame_ns") {
        net::EtherHeader hdr;
        hdr.ether_type = 0x88b5;
        Bytes payload = randomBytes(rng, 64);
        return timeKernel(
            [&hdr, &payload]() {
                auto f = net::makeFrame(hdr, payload);
                g_sink = g_sink + uint64_t(f.use_count());
            },
            1);
    }
    if (name == "qos.kernel.push_pop_ns") {
        // Hold the queue at tenant_write_repl's high-water depth (96)
        // over 8 tenants, then push one and pop one per call.
        qos::SchedulerConfig cfg;
        cfg.high_water = 96;
        cfg.tenant_floor = 48;
        qos::FairScheduler sched(cfg);
        for (uint32_t t = 0; t < 8; ++t) {
            sim::Tick slo = t < 2 ? 0 : 500 * sim::kMicrosecond;
            sched.setTenant(t, qos::TenantConfig{1.0, slo});
        }
        sim::Tick now = 0;
        uint64_t token = 0;
        while (sched.queued() < cfg.high_water - 1)
            sched.push(uint32_t(token % 8), token, 2.0, now), ++token;
        return timeKernel(
            [&]() {
                now += 1000000;
                auto v = sched.push(uint32_t(token % 8), token, 2.0, now);
                ++token;
                if (v != qos::Verdict::Shed) {
                    auto p = sched.pop(now);
                    g_sink = g_sink + (p ? p->token : 0);
                }
            },
            1);
    }
    if (name == "crypto.kernel.aes_ctr_4k_ns") {
        Bytes key = randomBytes(rng, 32);
        crypto::Aes aes(key);
        Bytes buf = randomBytes(rng, 4096);
        uint64_t nonce = rng.next();
        return timeKernel(
            [&]() {
                Bytes out = crypto::ctrCrypt(aes, nonce++, buf);
                g_sink = g_sink + out[0];
            },
            1);
    }
    return -1;
}

} // namespace perfbench
