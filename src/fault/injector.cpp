#include "fault/injector.hpp"

#include <algorithm>

#include "models/vrio.hpp"
#include "util/logging.hpp"

namespace vrio::fault {

FaultInjector::FaultInjector(sim::Simulation &sim, std::string name,
                             FaultPlan plan)
    : SimObject(sim, std::move(name)), plan_(std::move(plan)),
      rng(sim::Random(plan_.seed).split("fault")),
      burst_rng(sim::Random(plan_.seed).split("fault.burst"))
{
    static const char *const kKindNames[kNumFaultKinds] = {
        "drop",      "corrupt", "delay", "reorder",
        "burst_drop", "corrupt_payload", "outage", "stall",
        "wedge",     "port_down", "squeeze"};
    auto &m = sim.telemetry().metrics;
    auto &tr = sim.telemetry().tracer;
    tr_fault_track = tr.intern("fault");
    for (unsigned k = 0; k < kNumFaultKinds; ++k) {
        tm_injected[k] =
            &m.counter("fault.injected", {{"injector", this->name()},
                                          {"kind", kKindNames[k]}});
        tr_fault_names[k] =
            tr.intern(std::string("fault.") + kKindNames[k]);
    }
}

void
FaultInjector::noteFault(unsigned kind, uint64_t arg)
{
    tm_injected[kind]->inc();
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.instant(tr_fault_track, tr_fault_names[kind],
                   sim().events().now(), telemetry::cat::kFault, arg);
    }
}

FaultInjector::~FaultInjector()
{
    // Leave links usable if the injector dies first.
    for (net::Link *link : links)
        link->setFaultHook(nullptr);
}

void
FaultInjector::attachLink(net::Link &link)
{
    link.setFaultHook(this);
    link_index.emplace(&link, links.size());
    links.push_back(&link);
    burst_states.emplace_back();
}

void
FaultInjector::attachIoHost(iohost::IoHypervisor &hv)
{
    for (iohost::IoHypervisor *existing : iohvs)
        vrio_assert(existing != &hv, "IOhost attached twice");
    iohvs.push_back(&hv);
}

iohost::IoHypervisor &
FaultInjector::targetIoHost(unsigned iohost)
{
    vrio_assert(!iohvs.empty(), "no attached IOhost");
    return *iohvs[std::min<size_t>(iohost, iohvs.size() - 1)];
}

void
FaultInjector::attachRxRing(net::Nic &nic)
{
    rings.push_back(&nic);
}

void
FaultInjector::attachSwitch(net::Switch &sw)
{
    vrio_assert(!switch_ || switch_ == &sw,
                "injector already owns a switch");
    switch_ = &sw;
}

void
FaultInjector::attach(models::VrioModel &model)
{
    for (net::Link *link : model.channelLinks())
        attachLink(*link);
    for (unsigned k = 0; k < model.rackIoHostCount(); ++k)
        attachIoHost(model.rackHypervisor(k));
    for (net::Nic *nic : model.iohostClientNics())
        attachRxRing(*nic);
}

void
FaultInjector::arm()
{
    vrio_assert(!armed, "injector armed twice");
    armed = true;
    vrio_assert(plan_.outages.empty() || !iohvs.empty(),
                "outage windows need an attached IOhost");
    vrio_assert(plan_.stalls.empty() || !iohvs.empty(),
                "stall windows need an attached IOhost");
    vrio_assert(plan_.squeezes.empty() || !rings.empty(),
                "squeeze windows need attached RX rings");
    vrio_assert(plan_.wedges.empty() || !iohvs.empty(),
                "wedge windows need an attached IOhost");
    vrio_assert(plan_.port_downs.empty() || switch_,
                "port-down windows need an attached switch");

    auto &eq = sim().events();
    // A window behind now() is a plan bug (the caller armed too late
    // or mis-set an absolute tick); silently skipping it yields a run
    // that quietly measures nothing, so reject the plan outright.
    auto checkFuture = [&](sim::Tick at, const char *what) {
        if (at < eq.now())
            vrio_fatal("fault plan ", what, " scheduled at tick ", at,
                       ", which is already in the past (now ", eq.now(),
                       "); arm() before the window opens");
    };
    // Coalesce same-IOhost outage windows that overlap or touch.
    // Scheduling them naively pairs each begin with its own end, so
    // the FIRST window's end would bring the host back online while a
    // later overlapping window still holds it down — the host flickers
    // alive mid-crash and double-counts the outage.  One begin/end
    // pair per maximal downtime interval instead.
    std::vector<OutageWindow> outages = plan_.outages;
    std::stable_sort(outages.begin(), outages.end(),
                     [](const OutageWindow &a, const OutageWindow &b) {
                         return a.iohost != b.iohost
                                    ? a.iohost < b.iohost
                                    : a.at < b.at;
                     });
    std::vector<OutageWindow> merged;
    for (const OutageWindow &w : outages) {
        if (!merged.empty() && merged.back().iohost == w.iohost &&
            w.at <= merged.back().at + merged.back().duration) {
            OutageWindow &m = merged.back();
            sim::Tick end = std::max(m.at + m.duration,
                                     w.at + w.duration);
            m.duration = end - m.at;
            ++outages_coalesced;
            continue;
        }
        merged.push_back(w);
    }
    for (const OutageWindow &w : merged) {
        checkFuture(w.at, "outage");
        eq.scheduleAt(w.at, [this, w]() { beginOutage(w); });
        eq.scheduleAt(w.at + w.duration, [this, w]() { endOutage(w); });
    }
    for (const StallWindow &w : plan_.stalls) {
        checkFuture(w.at, "stall");
        eq.scheduleAt(w.at, [this, w]() { beginStall(w); });
    }
    for (const RxSqueezeWindow &w : plan_.squeezes) {
        checkFuture(w.at, "squeeze");
        eq.scheduleAt(w.at, [this, w]() { beginSqueeze(w); });
        eq.scheduleAt(w.at + w.duration, [this]() { endSqueeze(); });
    }
    for (const WedgeWindow &w : plan_.wedges) {
        checkFuture(w.at, "wedge");
        eq.scheduleAt(w.at, [this, w]() { beginWedge(w); });
    }
    for (const PortDownWindow &w : plan_.port_downs) {
        checkFuture(w.at, "port-down");
        eq.scheduleAt(w.at, [this, w]() { beginPortDown(w); });
    }
}

void
FaultInjector::beginOutage(const OutageWindow &w)
{
    noteFault(kOutage, w.iohost);
    targetIoHost(w.iohost).setOffline(true);
}

void
FaultInjector::endOutage(const OutageWindow &w)
{
    targetIoHost(w.iohost).setOffline(false);
}

void
FaultInjector::beginStall(const StallWindow &w)
{
    noteFault(kStall, 0);
    // Occupy the sidecore with dead time; queued work resumes after.
    targetIoHost(w.iohost).workerCore(w.worker).runFor(w.duration,
                                                       []() {});
}

void
FaultInjector::beginWedge(const WedgeWindow &w)
{
    noteFault(kWedge, 0);
    // Unlike beginStall's bounded dead time, a wedge pauses the worker
    // core's resource outright: jobs queue behind it forever.  Nothing
    // un-pauses it except clearWedge().
    targetIoHost(w.iohost).workerCore(w.worker).resource().setPaused(
        true);
}

void
FaultInjector::clearWedge(unsigned worker, unsigned iohost)
{
    targetIoHost(iohost).workerCore(worker).resource().setPaused(false);
}

void
FaultInjector::beginPortDown(const PortDownWindow &w)
{
    // Resolve the victim MAC to a port now, not at plan time: ports
    // are learned from traffic, so the lookup needs warmup behind it.
    std::optional<size_t> port = switch_->portOf(w.victim);
    if (!port) {
        vrio_warn("port-down victim MAC not in the switch table; "
                  "no traffic has been seen from it — skipping");
        return;
    }
    noteFault(kPortDown, 0);
    switch_->setPortDown(*port, true);
    sim().events().schedule(w.duration, [this, p = *port]() {
        switch_->setPortDown(p, false);
    });
}

void
FaultInjector::beginSqueeze(const RxSqueezeWindow &w)
{
    noteFault(kSqueeze, 0);
    for (net::Nic *nic : rings)
        nic->setRxRingLimit(w.limit);
}

void
FaultInjector::endSqueeze()
{
    for (net::Nic *nic : rings)
        nic->setRxRingLimit(0);
}

bool
FaultInjector::burstStep(net::Link &link, int direction)
{
    auto it = link_index.find(&link);
    vrio_assert(it != link_index.end(), "hook from unattached link");
    bool &bad = burst_states[it->second].bad[direction & 1];

    const GilbertElliott &ge = plan_.burst;
    // The current state decides this frame's fate; the chain then
    // advances, so a bad-state residency of k frames loses k frames
    // in a row (bad_loss = 1) — mean burst length 1/q.
    double loss = bad ? ge.bad_loss : ge.good_loss;
    bool lost = burst_rng.uniform() < loss;
    double flip = bad ? ge.q : ge.p;
    if (burst_rng.uniform() < flip)
        bad = !bad;
    return lost;
}

net::FaultVerdict
FaultInjector::onTransmit(net::Link &link, int direction,
                          const net::Frame &)
{
    net::FaultVerdict v;
    // Correlated burst loss runs first: a frame the channel's bad
    // state eats never reaches the i.i.d. fault lottery.
    if (plan_.burst.active() && burstStep(link, direction)) {
        tm_injected[kBurstDrop]->inc();
        v.kind = net::FaultVerdict::Kind::Drop;
        return v;
    }
    const LinkFaultSpec &spec = plan_.channel;
    // Inactive spec: no draw at all, so attaching a disarmed injector
    // cannot perturb anything downstream.
    if (!spec.active())
        return v;

    // One uniform draw decides the frame's fate; the fault classes
    // partition [0, 1).
    double u = rng.uniform();
    double acc = spec.drop_rate;
    if (u < acc) {
        tm_injected[kDrop]->inc();
        v.kind = net::FaultVerdict::Kind::Drop;
        return v;
    }
    acc += spec.corrupt_rate;
    if (u < acc) {
        tm_injected[kCorrupt]->inc();
        v.kind = net::FaultVerdict::Kind::Corrupt;
        return v;
    }
    acc += spec.delay_rate;
    if (u < acc) {
        tm_injected[kDelay]->inc();
        v.kind = net::FaultVerdict::Kind::Delay;
        v.extra_delay =
            sim::Tick(rng.exponential(double(spec.delay_mean)));
        return v;
    }
    acc += spec.reorder_rate;
    if (u < acc) {
        tm_injected[kReorder]->inc();
        // Holding this frame for a fixed window lets frames serialized
        // behind it arrive first.
        v.kind = net::FaultVerdict::Kind::Delay;
        v.extra_delay = spec.reorder_window;
        return v;
    }
    // New classes partition after the old ones, so a plan that sets
    // none of them reproduces the historical draw boundaries exactly.
    acc += spec.corrupt_payload_rate;
    if (u < acc) {
        tm_injected[kPayloadCorrupt]->inc();
        v.kind = net::FaultVerdict::Kind::CorruptPayload;
        return v;
    }
    return v;
}

} // namespace vrio::fault
