/**
 * @file
 * Determinism property of the sharded event loop (DESIGN.md §13):
 * with a fixed (seed, shard count), results must not depend on the
 * number of worker threads.  Each topology below runs with 1, 2 and
 * 8 threads over the same shard layout and the full observable
 * surface — every telemetry series and the workload-level
 * measurements — must match exactly.
 *
 * This is the contract that makes parallel runs trustworthy: thread
 * scheduling may interleave shard execution arbitrarily inside an
 * epoch, but the conservative-lookahead barriers and the
 * deterministic mailbox merge keep every shard's event sequence
 * bit-identical.
 */
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/testbed.hpp"
#include "workloads/filebench.hpp"
#include "workloads/netperf.hpp"
#include "workloads/open_loop.hpp"

namespace vrio {
namespace {

using models::ModelKind;
using sim::kMillisecond;

/** Every observable the simulation produced, as one comparable map. */
std::map<std::string, std::string>
fingerprint(core::Testbed &tb)
{
    std::map<std::string, std::string> out;

    tb.simulation().telemetry().metrics.forEach(
        [&](const telemetry::MetricsRegistry::Series &s) {
            std::ostringstream key, val;
            key << s.name;
            for (const auto &[k, v] : s.labels.kv)
                key << "," << k << "=" << v;
            using Kind = telemetry::MetricsRegistry::Kind;
            switch (s.kind) {
            case Kind::CounterK:
                val << s.counter.value();
                break;
            case Kind::GaugeK:
                val << s.gauge.value();
                break;
            case Kind::HistogramK:
                val << s.histogram.count() << "/" << s.histogram.sum()
                    << "/" << s.histogram.min() << "/"
                    << s.histogram.max();
                break;
            case Kind::ProbeK:
                // Probes sample live objects; the interesting ones
                // are mirrored by counters already.
                break;
            }
            out["tm:" + key.str()] = val.str();
        });

    out["sim:now"] = std::to_string(tb.simulation().now());
    return out;
}

void
expectIdentical(const std::map<std::string, std::string> &a,
                const std::map<std::string, std::string> &b,
                const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (const auto &[key, val] : a) {
        auto it = b.find(key);
        ASSERT_NE(it, b.end()) << what << ": missing " << key;
        EXPECT_EQ(val, it->second) << what << ": " << key;
    }
}

struct RunResult
{
    std::map<std::string, std::string> fp;
    uint64_t rr_txns = 0;
    uint64_t rr_lat_count = 0;
    uint64_t stream_bytes = 0;
    uint64_t stream_chunks = 0;
    uint64_t fb_ops = 0;
};

struct Topology
{
    const char *name;
    unsigned vmhosts;
    unsigned vms;
    uint64_t seed;
    bool via_switch;
    /** 0 = legacy single-IOhost wiring; >= 1 = rack layer under test. */
    unsigned iohosts = 0;
    bool coalesce = false;
    /** Multi-tenant QoS at the fan-out (exclusive with coalesce). */
    bool qos = false;
};

// Print a topology as its name; the default printer would dump the
// struct's bytes, including the name pointer, which differs per run.
void
PrintTo(const Topology &t, std::ostream *os)
{
    *os << t.name;
}

/**
 * One vRIO rack: every VM runs netperf RR, VM 0 additionally pushes
 * a TCP stream.  Rack topologies (iohosts >= 2) add a filebench
 * random-I/O loop per VM so the block path — the cross-VM coalescer
 * and the load-digest steering — carries traffic too.  The shard
 * count is pinned so only the thread count varies between runs.
 */
RunResult
runTopology(const Topology &t, unsigned threads)
{
    core::TestbedOptions options;
    options.vmhosts = t.vmhosts;
    options.sidecores = 2;
    options.seed = t.seed;
    options.threads = threads;
    options.shards = models::vrioShardCount(t.vmhosts, t.iohosts);
    options.configure = [&](models::ModelConfig &mc) {
        mc.vrio_via_switch = t.via_switch;
        if (t.iohosts) {
            // Rack layer with live steering: heartbeats carry load
            // digests and clients may re-home mid-run — placement
            // decisions must be part of the determinism contract.
            mc.with_block = true;
            mc.recovery.enabled = true;
            mc.rack.iohosts = t.iohosts;
            mc.rack.coalesce = t.coalesce;
            mc.rack.shared_volume = true;
            mc.rack.resteer_ratio = 1.5;
            mc.rack.resteer_dwell = 5 * kMillisecond;
        }
        if (t.qos) {
            // Tight admission bounds so the scheduler's defer/shed
            // ladder — not just the fair lane — is exercised and must
            // therefore be thread-count-invariant too.
            mc.rack.qos.enabled = true;
            mc.rack.qos.high_water = 16;
            mc.rack.qos.tenant_floor = 4;
            mc.rack.qos.weights = {1.0, 2.0};
            mc.rack.qos.slos = {0, 200 * sim::kMicrosecond};
        }
    };
    core::Testbed tb(ModelKind::Vrio, t.vms, options);
    tb.settle();

    auto &gen = tb.generator();
    std::vector<std::unique_ptr<workloads::NetperfRr>> rrs;
    for (unsigned v = 0; v < t.vms; ++v) {
        rrs.push_back(std::make_unique<workloads::NetperfRr>(
            gen, gen.newSession(), tb.guest(v),
            workloads::NetperfRr::Config{}));
        rrs.back()->start();
    }
    models::CostParams costs;
    workloads::NetperfStream stream(gen, gen.newSession(), tb.guest(0),
                                    costs, {});
    stream.start();

    std::vector<std::unique_ptr<workloads::FilebenchRandom>> fbs;
    if (t.iohosts) {
        for (unsigned v = 0; v < t.vms; ++v) {
            workloads::FilebenchRandom::Config cfg;
            cfg.readers = 1;
            cfg.writers = 1;
            fbs.push_back(std::make_unique<workloads::FilebenchRandom>(
                tb.guest(v), tb.simulation().random().split(), cfg));
            fbs.back()->start();
        }
    }

    // QoS topologies add an open-loop firehose on VM 0 so admission
    // control actually fires — the defer/shed decisions (and the
    // client retransmits sheds trigger) join the fingerprint.
    std::unique_ptr<workloads::OpenLoopBlock> noisy;
    if (t.qos) {
        workloads::OpenLoopBlock::Config cfg;
        cfg.rate = 150000;
        cfg.write_fraction = 1.0;
        noisy = std::make_unique<workloads::OpenLoopBlock>(
            tb.guest(0), tb.simulation().random().split(), cfg);
        noisy->start();
    }

    tb.runFor(20 * kMillisecond);

    RunResult r;
    r.fp = fingerprint(tb);
    for (auto &rr : rrs) {
        r.rr_txns += rr->transactions();
        r.rr_lat_count += rr->latencyUs().count();
    }
    r.stream_bytes = stream.bytesReceived();
    r.stream_chunks = stream.chunksSent();
    for (auto &fb : fbs)
        r.fb_ops += fb->opsCompleted();
    if (noisy)
        r.fb_ops += noisy->opsCompleted();
    return r;
}

class ShardEquivalence : public ::testing::TestWithParam<Topology>
{};

TEST_P(ShardEquivalence, ThreadCountNeverChangesResults)
{
    const Topology &t = GetParam();
    RunResult base = runTopology(t, 1);
    // A run that did nothing would satisfy equality trivially.
    ASSERT_GT(base.rr_txns, 100u);
    ASSERT_GT(base.stream_bytes, 0u);
    if (t.iohosts) {
        ASSERT_GT(base.fb_ops, 100u);
    }

    for (unsigned threads : {2u, 8u}) {
        RunResult par = runTopology(t, threads);
        SCOPED_TRACE(std::string(t.name) + " threads=" +
                     std::to_string(threads));
        EXPECT_EQ(base.rr_txns, par.rr_txns);
        EXPECT_EQ(base.rr_lat_count, par.rr_lat_count);
        EXPECT_EQ(base.stream_bytes, par.stream_bytes);
        EXPECT_EQ(base.stream_chunks, par.stream_chunks);
        EXPECT_EQ(base.fb_ops, par.fb_ops);
        expectIdentical(base.fp, par.fp, t.name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ShardEquivalence,
    ::testing::Values(
        Topology{"direct_2x4", 2, 4, 7, false},
        Topology{"switch_3x3", 3, 3, 11, true},
        Topology{"direct_4x4", 4, 4, 1234, false},
        // Rack topologies: placement steering and the cross-VM
        // coalescer must also be thread-count-invariant.
        Topology{"rack_2h_2io", 2, 4, 21, true, 2, true},
        Topology{"rack_3h_3io", 3, 6, 4242, true, 3, true},
        // 6 VMs over 4 IOhosts: uneven groups (the generator caps at
        // 7 sessions, so this is also the widest RR fan-in that fits).
        Topology{"rack_2h_4io_nocoalesce", 2, 6, 99, true, 4, false},
        // Multi-tenant QoS: weighted-fair pops, deadline promotions
        // and admission defer/shed under a noisy neighbor must all be
        // f(seed, shards), never threads.
        Topology{"rack_2h_2io_qos", 2, 4, 57, true, 2, false, true}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace vrio
