#include "core/testbed.hpp"

#include <cstdlib>

#include "telemetry/export.hpp"
#include "util/strutil.hpp"

namespace vrio::core {

namespace {

unsigned
threadsFromEnv()
{
    const char *env = std::getenv("VRIO_SIM_THREADS");
    if (!env || !*env)
        return 1;
    long n = std::atol(env);
    return n > 1 ? unsigned(n) : 1;
}

} // namespace

Testbed::Testbed(models::ModelKind kind, unsigned num_vms,
                 TestbedOptions options)
{
    // Finalize the model configuration first: the shard layout (and
    // therefore the Simulation) depends on the topology it describes.
    models::ModelConfig mc;
    mc.kind = kind;
    mc.num_vms = num_vms;
    mc.num_vmhosts = options.vmhosts;
    mc.sidecores = options.sidecores;
    mc.costs = options.costs;
    if (options.configure)
        options.configure(mc);

    // Environment overrides for the rack layer (DESIGN.md §15): unset
    // variables leave the configured topology untouched, so historical
    // runs — and every golden — are unaffected.  Setting the IOhost
    // count implies the switch wiring the rack layer requires.
    if (const char *env = std::getenv("VRIO_RACK_IOHOSTS");
        env && *env) {
        long n = std::atol(env);
        if (n >= 1) {
            mc.rack.iohosts = unsigned(n);
            mc.vrio_via_switch = true;
        }
    }
    // Cross-VM coalescing sits at each rack IOhost's fan-out point,
    // so enabling it forces rack mode (at least one IOhost behind the
    // switch).
    if (const char *env = std::getenv("VRIO_RACK_COALESCE");
        env && *env && std::atol(env) != 0) {
        mc.rack.coalesce = true;
        mc.vrio_via_switch = true;
        if (mc.rack.iohosts < 1)
            mc.rack.iohosts = 1;
    }
    // Warm-state replication (DESIGN.md §16) needs a peer to mirror
    // to, so enabling it forces the rack to at least two IOhosts.
    if (const char *env = std::getenv("VRIO_RACK_REPLICATION");
        env && *env && std::atol(env) != 0) {
        mc.rack.replication = true;
        mc.vrio_via_switch = true;
        if (mc.rack.iohosts < 2)
            mc.rack.iohosts = 2;
    }
    // Multi-tenant QoS (DESIGN.md §17) lives at the rack fan-out
    // point, so enabling it forces rack mode (at least one IOhost
    // behind the switch).
    if (const char *env = std::getenv("VRIO_RACK_QOS");
        env && *env && std::atol(env) != 0) {
        mc.rack.qos.enabled = true;
        mc.vrio_via_switch = true;
        if (mc.rack.iohosts < 1)
            mc.rack.iohosts = 1;
    }

    unsigned threads =
        options.threads ? options.threads : threadsFromEnv();
    sim::Simulation::Config sc;
    sc.seed = options.seed;
    bool vrio_kind = mc.kind == models::ModelKind::Vrio ||
                     mc.kind == models::ModelKind::VrioNoPoll;
    if (vrio_kind && (threads > 1 || options.shards > 1)) {
        sc.shards = options.shards
                        ? options.shards
                        : models::vrioShardCount(mc.num_vmhosts,
                                                 mc.rack.iohosts);
        sc.threads = threads;
    }
    sim_ = std::make_unique<sim::Simulation>(sc);

    models::RackConfig rc;
    rc.num_generators = options.generators;
    rc.costs = options.costs;
    rack_ = std::make_unique<models::Rack>(*sim_, rc);

    model_ = models::makeModel(*rack_, mc);
    label_ = strFormat("%s-vm%u-s%llu", models::modelKindName(mc.kind),
                       num_vms, (unsigned long long)options.seed);
}

Testbed::~Testbed()
{
    // Hand this run's metrics and trace to the process-wide sink
    // while the model (whose objects back the registry probes) is
    // still alive.  No exporter armed: a single cached getenv test.
    if (telemetry::Sink::armed())
        telemetry::Sink::instance().submit(label_, sim_->telemetry());
}

models::GuestEndpoint &
Testbed::guest(unsigned vm_index)
{
    return model_->guest(vm_index);
}

models::Generator &
Testbed::generator(unsigned index)
{
    return rack_->generator(index);
}

void
Testbed::settle()
{
    runFor(sim::Tick(5) * sim::kMillisecond);
}

void
Testbed::runFor(sim::Tick duration)
{
    sim_->runUntil(sim_->now() + duration);
}

} // namespace vrio::core
