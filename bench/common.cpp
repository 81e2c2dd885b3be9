#include "common.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "fault/injector.hpp"
#include "models/vrio.hpp"
#include "util/logging.hpp"

namespace vrio::bench {

bool
smokeMode()
{
    const char *env = std::getenv("VRIO_BENCH_SMOKE");
    return env && env[0] == '1';
}

SweepOptions::SweepOptions()
{
    if (smokeMode()) {
        warmup = sim::Tick(10) * sim::kMillisecond;
        measure = sim::Tick(40) * sim::kMillisecond;
    }
}

unsigned
SweepRunner::defaultJobs()
{
    if (const char *env = std::getenv("VRIO_BENCH_JOBS")) {
        long v = std::atol(env);
        if (v >= 1)
            return unsigned(v);
        vrio_warn("ignoring bad VRIO_BENCH_JOBS='", env, "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : njobs(jobs > 0 ? jobs : defaultJobs())
{}

void
SweepRunner::add(std::string label, std::function<void()> task)
{
    cells.push_back(Cell{std::move(label), std::move(task)});
}

std::shared_ptr<RrResult>
SweepRunner::netperfRr(models::ModelKind kind, unsigned n_vms,
                       SweepOptions opt)
{
    std::string label = std::string("rr ") + models::modelKindName(kind) +
                        " n=" + std::to_string(n_vms);
    return defer<RrResult>(std::move(label), [kind, n_vms, opt]() {
        return runNetperfRr(kind, n_vms, opt);
    });
}

std::shared_ptr<StreamResult>
SweepRunner::netperfStream(models::ModelKind kind, unsigned n_vms,
                           SweepOptions opt)
{
    std::string label = std::string("stream ") +
                        models::modelKindName(kind) +
                        " n=" + std::to_string(n_vms);
    return defer<StreamResult>(std::move(label), [kind, n_vms, opt]() {
        return runNetperfStream(kind, n_vms, opt);
    });
}

std::shared_ptr<TpsResult>
SweepRunner::requestResponse(models::ModelKind kind, unsigned n_vms,
                             workloads::RequestResponseServer::Config wcfg,
                             SweepOptions opt)
{
    std::string label = std::string("reqresp ") +
                        models::modelKindName(kind) +
                        " n=" + std::to_string(n_vms);
    return defer<TpsResult>(std::move(label),
                            [kind, n_vms, wcfg, opt]() {
                                return runRequestResponse(kind, n_vms,
                                                          wcfg, opt);
                            });
}

void
SweepRunner::runCell(Cell &cell, bool verbose)
{
    if (!verbose) {
        cell.task();
        return;
    }
    auto t0 = std::chrono::steady_clock::now();
    cell.task();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    // stderr so stdout tables stay byte-identical.
    static std::mutex io_mutex;
    std::lock_guard<std::mutex> lock(io_mutex);
    std::fprintf(stderr, "[sweep] %-32s %9.1f ms\n", cell.label.c_str(),
                 ms);
}

void
SweepRunner::run()
{
    const char *env = std::getenv("VRIO_BENCH_VERBOSE");
    bool verbose = env && env[0] == '1';

    unsigned workers = unsigned(std::min<size_t>(njobs, cells.size()));
    if (workers <= 1) {
        for (Cell &cell : cells)
            runCell(cell, verbose);
        cells.clear();
        return;
    }

    std::atomic<size_t> next{0};
    auto worker = [this, &next, verbose]() {
        while (true) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= cells.size())
                return;
            runCell(cells[i], verbose);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    cells.clear();
}

using models::ModelConfig;
using models::ModelKind;
using sim::kMillisecond;

Experiment::Experiment(ModelKind kind, unsigned n_vms,
                       const SweepOptions &opt)
{
    core::TestbedOptions options;
    options.vmhosts = opt.vmhosts;
    options.sidecores = opt.sidecores;
    options.generators = opt.generators;
    options.costs = opt.costs;
    options.seed = opt.seed;
    options.configure = opt.tweak;
    testbed = std::make_unique<core::Testbed>(kind, n_vms, options);
    sim = &testbed->simulation();
    rack = &testbed->rack();
    model = &testbed->model();
}

void
Experiment::settle()
{
    testbed->settle();
}

void
mergeHistogram(stats::Histogram &into, const stats::Histogram &from)
{
    for (double v : from.raw())
        into.add(v);
}

double
busyCycles(const std::vector<const sim::Resource *> &resources, double ghz)
{
    double cycles = 0;
    for (const auto *res : resources) {
        cycles +=
            sim::ticksToSeconds(res->busyTicks()) * ghz * 1e9;
    }
    return cycles;
}

RrResult
runNetperfRr(ModelKind kind, unsigned n_vms, const SweepOptions &opt)
{
    Experiment exp(kind, n_vms, opt);
    exp.settle();

    std::vector<std::unique_ptr<workloads::NetperfRr>> wls;
    for (unsigned v = 0; v < n_vms; ++v) {
        auto &gen = exp.rack->generator(v % opt.generators);
        unsigned session = gen.newSession();
        wls.push_back(std::make_unique<workloads::NetperfRr>(
            gen, session, exp.model->guest(v),
            workloads::NetperfRr::Config{}));
        wls.back()->start();
    }

    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    for (auto &wl : wls)
        wl->resetStats();
    auto io_before = exp.model->ioResources();
    std::vector<uint64_t> contended_before, completed_before;
    for (const auto *res : io_before) {
        contended_before.push_back(res->contendedJobs());
        completed_before.push_back(res->completed());
    }

    exp.sim->runUntil(exp.sim->now() + opt.measure);

    RrResult out;
    for (auto &wl : wls) {
        mergeHistogram(out.latency_us, wl->latencyUs());
        out.transactions += wl->transactions();
    }
    auto io_after = exp.model->ioResources();
    uint64_t contended = 0, completed = 0;
    for (size_t i = 0; i < io_after.size(); ++i) {
        contended += io_after[i]->contendedJobs() - contended_before[i];
        completed += io_after[i]->completed() - completed_before[i];
    }
    out.contended_fraction =
        completed > 0 ? double(contended) / double(completed) : 0.0;
    return out;
}

StreamResult
runNetperfStream(ModelKind kind, unsigned n_vms, const SweepOptions &opt)
{
    Experiment exp(kind, n_vms, opt);
    exp.settle();

    std::vector<std::unique_ptr<workloads::NetperfStream>> wls;
    for (unsigned v = 0; v < n_vms; ++v) {
        auto &gen = exp.rack->generator(v % opt.generators);
        unsigned session = gen.newSession();
        wls.push_back(std::make_unique<workloads::NetperfStream>(
            gen, session, exp.model->guest(v), opt.costs,
            workloads::NetperfStream::Config{}));
        wls.back()->start();
    }

    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    for (auto &wl : wls)
        wl->resetStats();

    // Cycle accounting for Fig. 10: guest vCPUs plus I/O cores.
    double cycles_before = 0;
    for (unsigned v = 0; v < n_vms; ++v) {
        cycles_before += busyCycles(
            {&exp.model->guest(v).vm().vcpu().resource()},
            opt.costs.guest_ghz);
    }
    double io_ghz = (kind == ModelKind::Vrio ||
                     kind == ModelKind::VrioNoPoll)
                        ? opt.costs.iohost_ghz
                        : opt.costs.guest_ghz;
    cycles_before += busyCycles(exp.model->ioResources(), io_ghz);

    exp.sim->runUntil(exp.sim->now() + opt.measure);

    StreamResult out;
    uint64_t bytes = 0;
    for (auto &wl : wls) {
        out.total_gbps += wl->throughputGbps(*exp.sim);
        bytes += wl->bytesReceived();
    }

    double cycles_after = 0;
    for (unsigned v = 0; v < n_vms; ++v) {
        cycles_after += busyCycles(
            {&exp.model->guest(v).vm().vcpu().resource()},
            opt.costs.guest_ghz);
    }
    cycles_after += busyCycles(exp.model->ioResources(), io_ghz);

    double messages = double(bytes) / 64.0;
    out.cycles_per_msg =
        messages > 0 ? (cycles_after - cycles_before) / messages : 0.0;
    return out;
}

uint64_t
registryCounterSum(Experiment &exp, std::string_view name)
{
    return exp.sim->telemetry().metrics.sumCounters(name);
}

uint64_t
clientCount(models::IoModel &model, unsigned vm_index,
            std::string_view series)
{
    hv::Vm &vm = model.guest(vm_index).vm();
    return vm.sim().telemetry().metrics.count(series, {{"vm", vm.name()}});
}

std::unique_ptr<fault::FaultInjector>
attachInjector(Experiment &exp, const fault::FaultPlan &plan)
{
    auto *vrio_model = dynamic_cast<models::VrioModel *>(exp.model);
    if (!vrio_model || plan.empty())
        return nullptr;
    auto inj = std::make_unique<fault::FaultInjector>(*exp.sim, "fault",
                                                      plan);
    inj->attach(*vrio_model);
    // attach() wires only model-owned targets; port-down windows hit
    // the rack's ToR switch, which the experiment owns.
    inj->attachSwitch(exp.rack->rackSwitch());
    inj->arm();
    return inj;
}

FaultedStreamResult
runNetperfStreamFaulted(ModelKind kind, unsigned n_vms,
                        const SweepOptions &opt,
                        const fault::FaultPlan &plan,
                        workloads::NetperfStream::Config scfg)
{
    Experiment exp(kind, n_vms, opt);
    exp.settle();
    auto inj = attachInjector(exp, plan);

    std::vector<std::unique_ptr<workloads::NetperfStream>> wls;
    for (unsigned v = 0; v < n_vms; ++v) {
        auto &gen = exp.rack->generator(v % opt.generators);
        unsigned session = gen.newSession();
        wls.push_back(std::make_unique<workloads::NetperfStream>(
            gen, session, exp.model->guest(v), opt.costs, scfg));
        wls.back()->start();
    }
    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    for (auto &wl : wls)
        wl->resetStats();
    exp.sim->runUntil(exp.sim->now() + opt.measure);

    FaultedStreamResult out;
    for (auto &wl : wls) {
        out.total_gbps += wl->throughputGbps(*exp.sim);
        out.tcp_retransmits += wl->tcpRetransmits();
        if (wl->tcp()) {
            // Post-warmup deltas: the injector arms before the lossy
            // warmup, so the cumulative machine counters would charge
            // warmup losses to the measured window.
            out.tcp_timeouts += wl->tcpTimeouts();
            out.tcp_fast_retransmits += wl->tcpFastRetransmits();
            out.cwnd_peak =
                std::max(out.cwnd_peak, wl->cwndTrace().max());
            out.srtt_last_us =
                std::max(out.srtt_last_us, wl->srttTrace().last());
        }
    }
    out.link_lost = registryCounterSum(exp, "net.link.lost");
    out.faults_injected = registryCounterSum(exp, "fault.injected");
    return out;
}

TpsResult
runRequestResponse(ModelKind kind, unsigned n_vms,
                   workloads::RequestResponseServer::Config wcfg,
                   const SweepOptions &opt)
{
    Experiment exp(kind, n_vms, opt);
    exp.settle();

    std::vector<std::unique_ptr<workloads::RequestResponseServer>> wls;
    for (unsigned v = 0; v < n_vms; ++v) {
        auto &gen = exp.rack->generator(v % opt.generators);
        unsigned session = gen.newSession();
        wls.push_back(std::make_unique<workloads::RequestResponseServer>(
            gen, session, exp.model->guest(v), wcfg));
        wls.back()->start();
    }

    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    for (auto &wl : wls)
        wl->resetStats();
    exp.sim->runUntil(exp.sim->now() + opt.measure);

    TpsResult out;
    for (auto &wl : wls) {
        out.total_tps += wl->throughputTps(*exp.sim);
        mergeHistogram(out.latency_us, wl->latencyUs());
    }
    return out;
}

} // namespace vrio::bench
