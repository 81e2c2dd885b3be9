#include "net/nic.hpp"

#include "util/logging.hpp"

namespace vrio::net {

Nic::Nic(sim::Simulation &sim, std::string name, NicConfig cfg)
    : SimObject(sim, std::move(name)), cfg(cfg), queues(cfg.num_queues),
      rx_ring_limit(cfg.rx_ring_size)
{
    vrio_assert(cfg.num_queues >= 1, "NIC needs at least one queue");
    vrio_assert(cfg.rx_ring_size > 0, "RX ring must be non-empty");
    auto &m = sim.telemetry().metrics;
    telemetry::Labels l{{"nic", this->name()}};
    rx_frames = &m.counter("net.nic.rx_frames", l);
    rx_drops = &m.counter("net.nic.rx_drops", l);
    rx_crc_drops = &m.counter("net.nic.rx_crc_drops", l);
    tx_frames = &m.counter("net.nic.tx_frames", l);
    interrupts = &m.counter("net.nic.interrupts", l);
    tso_sends = &m.counter("net.nic.tso_sends", l);
}

void
Nic::setRxRingLimit(size_t limit)
{
    if (limit == 0 || limit > cfg.rx_ring_size)
        limit = cfg.rx_ring_size;
    rx_ring_limit = limit;
}

void
Nic::setQueueMac(unsigned queue, MacAddress mac)
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    queues[queue].mac = mac;
}

MacAddress
Nic::queueMac(unsigned queue) const
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    return queues[queue].mac;
}

void
Nic::setRxMode(unsigned queue, RxMode mode)
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    queues[queue].mode = mode;
}

void
Nic::setRxHandler(unsigned queue, std::function<void(unsigned)> fn)
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    queues[queue].handler = std::move(fn);
}

void
Nic::setRxNotify(unsigned queue, std::function<void(unsigned)> fn)
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    queues[queue].notify = std::move(fn);
}

size_t
Nic::rxPending(unsigned queue) const
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    return queues[queue].rx.size();
}

size_t
Nic::rxTake(unsigned queue, size_t max, std::vector<FramePtr> &batch)
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    auto &q = queues[queue];
    batch.clear();
    while (!q.rx.empty() && batch.size() < max) {
        batch.push_back(std::move(q.rx.front()));
        q.rx.pop_front();
    }
    return batch.size();
}

void
Nic::clearQueueMac(unsigned queue)
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    queues[queue].mac = MacAddress();
}

void
Nic::addQueueMac(unsigned queue, MacAddress mac)
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    extra_macs[mac] = queue;
}

int
Nic::classify(const MacAddress &dst) const
{
    if (dst.isBroadcast() || dst.isMulticast())
        return 0;
    for (size_t i = 0; i < queues.size(); ++i) {
        if (queues[i].mac == dst)
            return int(i);
    }
    auto it = extra_macs.find(dst);
    if (it != extra_macs.end())
        return int(it->second);
    return promiscuous ? 0 : -1;
}

void
Nic::receive(FramePtr frame)
{
    if (frame->fcs_corrupt) {
        // Hardware FCS check fails before any classification.
        rx_crc_drops->inc();
        return;
    }
    EtherHeader hdr = frame->ether();
    int queue = classify(hdr.dst);
    if (queue < 0) {
        // Not for us; a real NIC filters silently.
        return;
    }
    enqueueRx(unsigned(queue), std::move(frame));
}

void
Nic::enqueueRx(unsigned queue, FramePtr frame)
{
    auto &q = queues[queue];
    if (q.rx.size() >= rx_ring_limit) {
        rx_drops->inc();
        return;
    }
    rx_frames->inc();
    q.rx.push_back(std::move(frame));
    if (q.mode == RxMode::Interrupt)
        maybeInterrupt(queue);
    if (q.notify)
        q.notify(queue);
}

void
Nic::maybeInterrupt(unsigned queue)
{
    auto &q = queues[queue];
    if (!q.handler)
        return;
    if (q.rx.size() >= cfg.intr_coalesce_frames) {
        // Moderation threshold reached: fire now.
        q.intr_event.cancel();
        q.intr_scheduled = false;
        fireInterrupt(queue);
        return;
    }
    if (!q.intr_scheduled) {
        q.intr_scheduled = true;
        q.intr_event =
            sim().events().schedule(cfg.intr_coalesce_delay, [this, queue]() {
                queues[queue].intr_scheduled = false;
                fireInterrupt(queue);
            });
    }
}

void
Nic::fireInterrupt(unsigned queue)
{
    auto &q = queues[queue];
    if (q.rx.empty())
        return;
    interrupts->inc();
    q.handler(queue);
}

void
Nic::send(unsigned queue, FramePtr frame)
{
    vrio_assert(queue < queues.size(), "bad queue ", queue);
    Link *l = link();
    vrio_assert(l, "NIC ", name(), " is not connected to a link");

    uint64_t l3_size = frame->bytes.size() + frame->pad - kEtherHeaderSize;
    if (l3_size > cfg.mtu) {
        vrio_assert(cfg.tso, "oversized frame (", l3_size,
                    " > MTU ", cfg.mtu, ") with TSO disabled");
        vrio_assert(frame->pad == 0 && frameIsTcpIpv4(*frame),
                    "oversized frame is not TSO-eligible");
        tso_sends->inc();
        for (auto &seg : tsoSegment(*frame, cfg.mtu)) {
            tx_frames->inc();
            l->transmit(*this, std::move(seg));
        }
        return;
    }
    tx_frames->inc();
    l->transmit(*this, std::move(frame));
}

} // namespace vrio::net
