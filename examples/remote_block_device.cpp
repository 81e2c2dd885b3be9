/**
 * @file
 * Remote block device example ("Making a Local Device Remote",
 * Section 5): a VM's block device lives at the IOhost, reached over
 * the vRIO transport.  We inject 3% frame loss on the channel and
 * watch the Section-4.5 retransmission protocol (10 ms doubling
 * timeouts, unique request identifiers, stale-response filtering)
 * keep the device correct.
 *
 * Build tree: ./build/examples/remote_block_device
 */
#include <cstdio>

#include "core/vrio.hpp"

using namespace vrio;

int
main()
{
    core::TestbedOptions options;
    options.configure = [](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_channel_loss = 0.03; // 3% frame loss, both directions
    };
    core::Testbed tb(models::ModelKind::Vrio, 1, options);
    tb.settle();

    auto &guest = tb.guest(0);
    std::printf("remote device: %llu sectors, reached over a lossy "
                "Ethernet channel\n",
                (unsigned long long)guest.blockCapacitySectors());

    // Write a recognizable pattern across 32 extents, then read it
    // back; every request crosses the wire and may be dropped.
    const int kExtents = 32;
    int completed = 0, failed = 0;
    std::map<int, Bytes> expected;

    std::function<void(int)> write_next = [&](int i) {
        if (i >= kExtents)
            return;
        Bytes data(64 * 1024);
        for (size_t j = 0; j < data.size(); ++j)
            data[j] = uint8_t(i * 37 + j);
        expected[i] = data;
        guest.submitBlock(
            {virtio::BlkType::Out, uint64_t(i) * 128, 128, data},
            [&, i](virtio::BlkStatus s, Bytes) {
                s == virtio::BlkStatus::Ok ? ++completed : ++failed;
                write_next(i + 1);
            });
    };
    write_next(0);
    tb.runFor(sim::Tick(30) * sim::kSecond);
    std::printf("writes: %d ok, %d failed\n", completed, failed);

    int verified = 0, corrupt = 0;
    for (int i = 0; i < kExtents; ++i) {
        guest.submitBlock(
            {virtio::BlkType::In, uint64_t(i) * 128, 128, {}},
            [&, i](virtio::BlkStatus s, Bytes data) {
                if (s == virtio::BlkStatus::Ok && data == expected[i])
                    ++verified;
                else
                    ++corrupt;
            });
        tb.runFor(sim::Tick(2) * sim::kSecond);
    }
    std::printf("reads: %d verified, %d corrupt\n", verified, corrupt);

    // Per-client protocol counts are telemetry series labelled by VM.
    const auto &metrics = tb.simulation().telemetry().metrics;
    telemetry::Labels vm0{{"vm", guest.vm().name()}};
    std::printf("\nprotocol work under 3%% loss: %llu retransmissions, "
                "%llu stale responses ignored\n",
                (unsigned long long)metrics.count(
                    "transport.rtq.retransmissions", vm0),
                (unsigned long long)metrics.count(
                    "transport.rtq.stale_responses", vm0));
    std::printf("(data integrity held: the guest disk scheduler's "
                "single-outstanding-request-per-block invariant makes "
                "blind retransmission safe.)\n");
    return 0;
}
