#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>

#include "core/testbed.hpp"
#include "interpose/services.hpp"
#include "models/io_model.hpp"
#include "sim/random.hpp"
#include "workloads/netperf.hpp"
#include "workloads/open_loop.hpp"

namespace perfbench {

using namespace vrio;

namespace {

constexpr sim::Tick kUs = sim::kMicrosecond;
constexpr sim::Tick kMs = sim::kMillisecond;
constexpr uint32_t kSlotSectors = 8; // 4 KiB
constexpr size_t kSlotBytes = kSlotSectors * virtio::kSectorSize;
/** Latency SLO: tenant_write_repl's victims; reported on every workload. */
constexpr sim::Tick kSlo = 500 * kUs;

double
ticksToUs(sim::Tick t)
{
    return double(t) / double(kUs);
}

std::string
fmt(const char *f, double a, double b = 0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b);
    return buf;
}

/** Shared plumbing: one core::Testbed and the window bookkeeping. */
class TestbedWorkload : public Workload
{
  public:
    void settle() override { tb_->settle(); }

    void
    advance(uint64_t ticks) override
    {
        sim().runUntil(sim().now() + sim::Tick(ticks));
    }

    const telemetry::MetricsRegistry &
    registry() const override
    {
        return tb_->simulation().telemetry().metrics;
    }

  protected:
    std::unique_ptr<core::Testbed> tb_;
    sim::Tick window_start_ = 0;
    std::vector<uint64_t> contended0_, completed0_;

    sim::Simulation &sim() { return tb_->simulation(); }

    void
    build(const RunSpec &spec, models::ModelKind kind, unsigned vms,
          core::TestbedOptions opt)
    {
        opt.seed = spec.seed;
        opt.threads = spec.threads ? spec.threads : defaultThreads();
        opt.shards = spec.shards;
        tb_ = std::make_unique<core::Testbed>(kind, vms, std::move(opt));
    }

    void
    markWindowStart(RepResult &r)
    {
        window_start_ = sim().now();
        contended0_.clear();
        completed0_.clear();
        for (const sim::Resource *res : tb_->model().ioResources()) {
            contended0_.push_back(res->contendedJobs());
            completed0_.push_back(res->completed());
        }
        r.lookahead_ps = uint64_t(sim().lookahead());
        r.worker_count = unsigned(contended0_.size());
    }

    void
    markWindowEnd(RepResult &r)
    {
        r.window_s = sim::ticksToSeconds(sim().now() - window_start_);
        uint64_t contended = 0, completed = 0;
        auto res = tb_->model().ioResources();
        for (size_t i = 0; i < res.size() && i < contended0_.size(); ++i) {
            contended += res[i]->contendedJobs() - contended0_[i];
            completed += res[i]->completed() - completed0_[i];
        }
        r.contended_frac =
            completed ? double(contended) / double(completed) : 0.0;
    }

    /** Score every op as a victim's: the workloads without an aggressor. */
    static void
    allVictims(RepResult &r)
    {
        const std::vector<double> &lat = r.lat_us.raw();
        r.victim_lat_us = r.lat_us;
        r.victim_attempted = r.attempted;
        r.victim_slo_miss =
            r.failed + uint64_t(std::count_if(
                           lat.begin(), lat.end(),
                           [](double us) { return us > ticksToUs(kSlo); }));
    }

    /** Run until @p idle() holds, in small steps, for at most @p cap. */
    bool
    runUntilIdle(const std::function<bool()> &idle, sim::Tick cap)
    {
        sim::Tick limit = sim().now() + cap;
        while (!idle() && sim().now() < limit)
            sim().runUntil(sim().now() + 50 * kUs);
        return idle();
    }
};

// -- rack_read_coalesce / rack_read_sharded --------------------------------

/**
 * Closed-loop striped 4 KiB reader (the fig13 rack cell's access
 * pattern): VM rank r of a G-VM IOhost group reads slot base +
 * (i*G + r) mod region in round i, so a group's round is one
 * contiguous G-slot extent the coalescer can merge.  Think time
 * between a completion and the next read is 2500 guest cycles scaled
 * by a seeded uniform draw in [0.5, 1.5).  Every read is checked
 * against the pattern prefill wrote.
 */
class StripedReader
{
  public:
    StripedReader(models::GuestEndpoint &guest, unsigned rank,
                  unsigned group, uint64_t base_slot,
                  const std::vector<Bytes> &expected, sim::Random rng)
        : guest_(guest), rank_(rank), group_(group), base_(base_slot),
          expected_(expected), rng_(rng), sim_(guest.vm().sim()),
          own_slots_((expected.size() - rank + group - 1) / group)
    {}

    /** Write this VM's share of the region (QD4). */
    void
    prefill()
    {
        for (unsigned q = 0; q < 4; ++q)
            writeNext();
    }

    bool prefillDone() const
    {
        return next_write_ >= own_slots_ && outstanding_ == 0;
    }

    void
    start(unsigned depth)
    {
        for (unsigned q = 0; q < depth; ++q)
            readNext();
    }

    void stop() { stopped_ = true; }
    void record(bool on) { recording_ = on; }

    unsigned outstanding() const { return outstanding_; }
    uint64_t issued() const { return issued_; }
    uint64_t ok() const { return ok_; }
    uint64_t errors() const { return errors_; }
    uint64_t mismatches() const { return mismatches_; }
    uint64_t writeErrors() const { return write_errors_; }
    const std::vector<double> &samples() const { return samples_; }
    void clearSamples() { samples_.clear(); }

  private:
    models::GuestEndpoint &guest_;
    unsigned rank_, group_;
    uint64_t base_;
    const std::vector<Bytes> &expected_;
    sim::Random rng_;
    sim::Simulation &sim_;
    /** Region offsets congruent to this VM's rank; prefill writes them. */
    uint64_t own_slots_;

    uint64_t next_write_ = 0;
    uint64_t round_ = 0;
    unsigned outstanding_ = 0;
    bool stopped_ = false;
    bool recording_ = false;
    uint64_t issued_ = 0, ok_ = 0, errors_ = 0, mismatches_ = 0;
    uint64_t write_errors_ = 0;
    std::vector<double> samples_;

    void
    writeNext()
    {
        if (next_write_ >= own_slots_)
            return;
        uint64_t off = next_write_++ * group_ + rank_;
        block::BlockRequest req;
        req.kind = virtio::BlkType::Out;
        req.sector = (base_ + off) * kSlotSectors;
        req.nsectors = kSlotSectors;
        req.data = expected_[off];
        ++outstanding_;
        guest_.submitBlock(std::move(req),
                           [this](virtio::BlkStatus s, Bytes) {
                               --outstanding_;
                               if (s != virtio::BlkStatus::Ok)
                                   ++write_errors_;
                               writeNext();
                           });
    }

    void
    readNext()
    {
        if (stopped_)
            return;
        uint64_t off = (round_ * group_ + rank_) % expected_.size();
        ++round_;
        block::BlockRequest req;
        req.kind = virtio::BlkType::In;
        req.sector = (base_ + off) * kSlotSectors;
        req.nsectors = kSlotSectors;
        sim::Tick issued = sim_.now();
        ++issued_;
        ++outstanding_;
        guest_.submitBlock(
            std::move(req),
            [this, issued, off](virtio::BlkStatus s, Bytes data) {
                --outstanding_;
                if (s != virtio::BlkStatus::Ok) {
                    ++errors_;
                } else {
                    ++ok_;
                    if (data != expected_[off])
                        ++mismatches_;
                    if (recording_)
                        samples_.push_back(ticksToUs(sim_.now() - issued));
                }
                double think = 2500.0 * rng_.uniform(0.5, 1.5);
                guest_.vm().vcpu().runPreempt(think,
                                              [this]() { readNext(); });
            });
    }
};

class RackRead : public TestbedWorkload
{
  public:
    explicit RackRead(unsigned threads) : threads_(threads) {}

    static constexpr unsigned kIohosts = 2;
    static constexpr unsigned kGroup = 4; // VMs per IOhost
    static constexpr unsigned kVms = kIohosts * kGroup;
    static constexpr uint64_t kRegionSlots = 512; // 2 MiB per volume

    uint64_t warmupTicks() const override { return 2 * kMs; }
    uint64_t measureTicks() const override { return 50 * kMs; }
    unsigned defaultThreads() const override { return threads_; }
    std::vector<std::string> kernels() const override
    {
        return {"sim.kernel.schedule_fire_ns", "util.kernel.crc32_4k_ns",
                "transport.kernel.seal_verify_4k_ns",
                "coalesce.kernel.plan_ns", "net.kernel.make_frame_ns"};
    }

    void
    construct(const RunSpec &spec) override
    {
        core::TestbedOptions opt;
        opt.vmhosts = 4;
        opt.sidecores = 2;
        opt.generators = 1;
        opt.configure = [](models::ModelConfig &mc) {
            mc.with_block = true;
            mc.vrio_via_switch = true;
            mc.rack.iohosts = kIohosts;
            mc.rack.coalesce = true;
            mc.rack.shared_volume = true;
            mc.rack.coalesce_max = kGroup;
            mc.rack.coalesce_window = sim::Tick(8 * kGroup) * kUs;
        };
        build(spec, models::ModelKind::Vrio, kVms, std::move(opt));

        // Inputs from the seed: where the region sits on the shared
        // volume and the bytes every slot holds.
        sim::Random rng(spec.seed);
        uint64_t cap_slots =
            tb_->guest(0).blockCapacitySectors() / kSlotSectors;
        uint64_t base_groups = (cap_slots - kRegionSlots) / kGroup;
        base_slot_ = rng.uniformInt(0, base_groups) * kGroup;
        expected_.assign(kRegionSlots, Bytes(kSlotBytes));
        for (Bytes &slot : expected_)
            for (size_t i = 0; i < kSlotBytes; i += 8) {
                uint64_t w = rng.next();
                std::copy_n(reinterpret_cast<const uint8_t *>(&w), 8,
                            slot.begin() + i);
            }
        corrupt_ = spec.corrupt_expected;

        // VM v is homed on IOhost v % kIohosts, so its rank within
        // that IOhost's group is v / kIohosts.
        for (unsigned v = 0; v < kVms; ++v)
            readers_.push_back(std::make_unique<StripedReader>(
                tb_->guest(v), v / kIohosts, kGroup, base_slot_, expected_,
                rng.split(uint64_t(v) + 1)));
    }

    void
    prefill() override
    {
        for (auto &r : readers_)
            r->prefill();
        prefilled_ = runUntilIdle(
            [this]() {
                return std::all_of(readers_.begin(), readers_.end(),
                                   [](auto &r) { return r->prefillDone(); });
            },
            200 * kMs);
        if (corrupt_)
            expected_[kRegionSlots / 2][0] ^= 0x5a;
    }

    void
    start() override
    {
        for (auto &r : readers_)
            r->start(4);
    }

    void
    beginWindow(RepResult &r) override
    {
        markWindowStart(r);
        ok0_ = err0_ = 0;
        for (auto &rd : readers_) {
            rd->clearSamples();
            rd->record(true);
            ok0_ += rd->ok();
            err0_ += rd->errors();
        }
    }

    void
    endWindow(RepResult &r) override
    {
        markWindowEnd(r);
        uint64_t ok = 0, err = 0;
        for (auto &rd : readers_) {
            rd->record(false);
            ok += rd->ok();
            err += rd->errors();
            for (double us : rd->samples())
                r.lat_us.add(us);
        }
        r.completed = ok - ok0_;
        r.failed = err - err0_;
        r.attempted = r.completed + r.failed;
        allVictims(r);
    }

    void
    drain() override
    {
        for (auto &r : readers_)
            r->stop();
        drained_ = runUntilIdle(
            [this]() {
                return std::all_of(
                    readers_.begin(), readers_.end(),
                    [](auto &r) { return r->outstanding() == 0; });
            },
            50 * kMs);
    }

    void
    verify(RepResult &r, Fingerprint &fp) override
    {
        uint64_t reads = 0, errors = 0, mismatches = 0, write_errors = 0;
        for (auto &rd : readers_) {
            reads += rd->ok();
            errors += rd->errors();
            mismatches += rd->mismatches();
            write_errors += rd->writeErrors();
            fp.u64(rd->issued());
            fp.u64(rd->ok());
            fp.u64(rd->mismatches());
        }
        for (double us : r.lat_us.raw())
            fp.f64(us);
        r.checks.push_back({"prefill completed without errors",
                            prefilled_ && write_errors == 0,
                            fmt("%.0f write errors", double(write_errors))});
        r.checks.push_back({"every read returns the prefill pattern",
                            reads > 0 && mismatches == 0,
                            fmt("%.0f of %.0f reads mismatched",
                                double(mismatches), double(reads))});
        r.checks.push_back({"zero I/O errors", errors == 0,
                            fmt("%.0f errors", double(errors))});
        r.checks.push_back({"drained, nothing stranded", drained_, ""});
    }

  private:
    unsigned threads_;
    uint64_t base_slot_ = 0;
    std::vector<Bytes> expected_;
    std::vector<std::unique_ptr<StripedReader>> readers_;
    bool corrupt_ = false;
    bool prefilled_ = false;
    bool drained_ = false;
    uint64_t ok0_ = 0, err0_ = 0;
};

// -- rr_small ---------------------------------------------------------------

class RrSmall : public TestbedWorkload
{
  public:
    static constexpr unsigned kVms = 7;

    uint64_t warmupTicks() const override { return 2 * kMs; }
    uint64_t measureTicks() const override { return 300 * kMs; }
    std::vector<std::string> kernels() const override
    {
        return {"sim.kernel.schedule_fire_ns",
                "transport.kernel.seal_verify_64_ns",
                "net.kernel.make_frame_ns"};
    }

    void
    construct(const RunSpec &spec) override
    {
        // Fig. 7's vRIO N=7 cell: the classic single-IOhost wiring.
        build(spec, models::ModelKind::Vrio, kVms, core::TestbedOptions{});
        // Each session's echo cost is drawn around netperf's default
        // (600 guest cycles), so the inputs, and with them the median,
        // depend on the seed.
        sim::Random rng(spec.seed);
        server_cycles_.clear();
        for (unsigned v = 0; v < kVms; ++v)
            server_cycles_.push_back(600.0 * rng.uniform(0.8, 1.2));
    }

    void
    start() override
    {
        for (unsigned v = 0; v < kVms; ++v) {
            auto &gen = tb_->generator(0);
            unsigned session = gen.newSession();
            workloads::NetperfRr::Config cfg;
            cfg.server_cycles = server_cycles_[v];
            rr_.push_back(std::make_unique<workloads::NetperfRr>(
                gen, session, tb_->guest(v), cfg));
            rr_.back()->start();
        }
    }

    void
    beginWindow(RepResult &r) override
    {
        markWindowStart(r);
        for (auto &w : rr_)
            w->resetStats();
    }

    void
    endWindow(RepResult &r) override
    {
        markWindowEnd(r);
        per_session_.clear();
        for (auto &w : rr_) {
            per_session_.push_back(w->transactions());
            r.completed += w->transactions();
            const auto &raw = w->latencyUs().raw();
            for (double us : raw)
                r.lat_us.add(us);
        }
        // The RR loop has no failure path: a lost message would stall
        // its session, which the liveness check below catches.
        r.attempted = r.completed;
        allVictims(r);
    }

    void
    verify(RepResult &r, Fingerprint &fp) override
    {
        for (uint64_t n : per_session_)
            fp.u64(n);
        for (double us : r.lat_us.raw())
            fp.f64(us);
        bool live = std::all_of(per_session_.begin(), per_session_.end(),
                                [](uint64_t n) { return n > 0; });
        r.checks.push_back({"transactions > 0 in every session",
                            r.completed > 0 && live,
                            fmt("%.0f transactions", double(r.completed))});
        // Paper Table 3: with vRIO the guests take no sync exits and
        // their VMhosts field no interrupts.
        uint64_t exits = counterDelta(r.before, r.after, "hv.vm.sync_exits");
        uint64_t irqs =
            counterDelta(r.before, r.after, "hv.vm.host_interrupts");
        r.checks.push_back({"Table 3: 0 sync exits and 0 host interrupts "
                            "per transaction",
                            exits == 0 && irqs == 0,
                            fmt("%.0f exits, %.0f host interrupts",
                                double(exits), double(irqs))});
    }

  private:
    std::vector<double> server_cycles_;
    std::vector<std::unique_ptr<workloads::NetperfRr>> rr_;
    std::vector<uint64_t> per_session_;
};

// -- tenant_write_repl ------------------------------------------------------

/** Encryption at rest that also counts the payloads it transforms. */
class CountingEncryption : public interpose::EncryptionService
{
  public:
    using EncryptionService::EncryptionService;

    bool
    process(interpose::IoContext &ctx, Bytes &payload) override
    {
        if (!payload.empty())
            payloads.fetch_add(1, std::memory_order_relaxed);
        return EncryptionService::process(ctx, payload);
    }

    std::atomic<uint64_t> payloads{0};
};

class TenantWriteRepl : public TestbedWorkload
{
  public:
    static constexpr unsigned kVms = 8;
    static constexpr unsigned kAggressors = 2; // VMs 0 and 1
    static constexpr double kVictimRate = 15000;
    /**
     * Aggressor rate as a multiple of the victim rate.  Each IOhost
     * completes about 97k req/s here.  At 4x (tab04 uses 8x) the
     * aggressor's backlog overruns its outstanding cap and requests
     * fail; at 3x none fail but the IOhost runs at ~93% of capacity
     * and the all-op p99 moves by ~10% from seed to seed; at 2x it
     * moves by ~2%.
     */
    static constexpr double kNoise = 2;

    ~TenantWriteRepl() override
    {
        // The model references the chains; tear it down first.
        wls_.clear();
        tb_.reset();
    }

    uint64_t warmupTicks() const override { return 5 * kMs; }
    uint64_t measureTicks() const override { return 150 * kMs; }
    std::vector<std::string> kernels() const override
    {
        return {"sim.kernel.schedule_fire_ns", "util.kernel.crc32_4k_ns",
                "transport.kernel.seal_verify_4k_ns",
                "qos.kernel.push_pop_ns", "crypto.kernel.aes_ctr_4k_ns",
                "net.kernel.make_frame_ns"};
    }

    void
    construct(const RunSpec &spec) override
    {
        sim::Random keys(spec.seed ^ 0x6b6579ull);
        key_.assign(32, 0);
        for (uint8_t &b : key_)
            b = uint8_t(keys.next());

        core::TestbedOptions opt;
        opt.vmhosts = 2;
        // One worker per IOhost: the fan-out is the contended resource.
        opt.sidecores = 1;
        opt.configure = [this](models::ModelConfig &mc) {
            mc.with_block = true;
            mc.vrio_via_switch = true;
            mc.rack.iohosts = 2;
            mc.rack.replication = true;
            mc.chain_factory = [this](uint32_t,
                                      bool is_block) -> interpose::Chain * {
                if (!is_block)
                    return nullptr;
                auto svc = std::make_unique<CountingEncryption>(key_, 4.0);
                services_.push_back(svc.get());
                auto chain = std::make_unique<interpose::Chain>();
                chain->append(std::move(svc));
                chains_.push_back(std::move(chain));
                return chains_.back().get();
            };
            mc.rack.qos.enabled = true;
            mc.rack.qos.default_weight = 1.0;
            mc.rack.qos.high_water = 96;
            mc.rack.qos.tenant_floor = 48;
            mc.rack.qos.slos.assign(kVms, kSlo);
            for (unsigned a = 0; a < kAggressors; ++a)
                mc.rack.qos.slos[a] = 0;
        };
        build(spec, models::ModelKind::Vrio, kVms, std::move(opt));
    }

    void
    start() override
    {
        for (unsigned v = 0; v < kVms; ++v) {
            workloads::OpenLoopBlock::Config cfg;
            bool aggressor = v < kAggressors;
            cfg.rate = aggressor ? kVictimRate * kNoise : kVictimRate;
            // Every tenant bursts with bounded-Pareto gaps (alpha 2.5,
            // bound 100).  Heavier aggressor bursts (tab04's alpha 1.5)
            // make the all-op p99.9 swing by tens of percent from seed
            // to seed at any affordable window.
            cfg.pareto_alpha = 2.5;
            cfg.pareto_bound = 100;
            if (aggressor)
                cfg.write_fraction = 1.0;
            else
                cfg.churn_ops_mean = 400;
            wls_.push_back(std::make_unique<workloads::OpenLoopBlock>(
                tb_->guest(v), sim().random().split(), cfg));
            wls_.back()->start();
        }
    }

    void
    beginWindow(RepResult &r) override
    {
        markWindowStart(r);
        marks0_ = marks();
        enc0_ = encrypted();
    }

    void
    endWindow(RepResult &r) override
    {
        markWindowEnd(r);
        std::vector<Mark> m1 = marks();
        for (unsigned v = 0; v < kVms; ++v) {
            const Mark &a = marks0_[v];
            const Mark &b = m1[v];
            uint64_t arrivals =
                (b.issued + b.overflows) - (a.issued + a.overflows);
            uint64_t failed =
                (b.errors - a.errors) + (b.overflows - a.overflows);
            r.attempted += arrivals;
            r.completed += b.ops - a.ops;
            r.failed += failed;
            r.overflows += b.overflows - a.overflows;
            const auto &raw = wls_[v]->latencyUs().raw();
            bool victim = v >= kAggressors;
            for (size_t i = a.samples; i < b.samples; ++i) {
                r.lat_us.add(raw[i]);
                if (victim) {
                    r.victim_lat_us.add(raw[i]);
                    if (raw[i] > ticksToUs(kSlo))
                        ++r.victim_slo_miss;
                }
            }
            if (victim) {
                r.victim_attempted += arrivals;
                r.victim_slo_miss += failed;
            }
        }
        r.encrypted_payloads = encrypted() - enc0_;
    }

    void
    drain() override
    {
        for (auto &w : wls_)
            w->stop();
        // A shed request waits for the client's retransmit timer, so
        // allow several timeouts' worth of simulated time.
        drained_ = runUntilIdle(
            [this]() {
                return std::all_of(wls_.begin(), wls_.end(), [](auto &w) {
                    return w->outstandingOps() == 0;
                });
            },
            200 * kMs);
        // Let the replication stream settle (batch flush + ack).
        advance(1 * kMs);
    }

    void
    verify(RepResult &r, Fingerprint &fp) override
    {
        uint64_t arrivals = 0, settled = 0, stranded = 0, issued = 0;
        for (auto &w : wls_) {
            arrivals += w->opsIssued() + w->overflows();
            settled += w->opsCompleted() + w->ioErrors() + w->overflows();
            stranded += w->outstandingOps();
            issued += w->opsIssued();
            fp.u64(w->opsIssued());
            fp.u64(w->opsCompleted());
            fp.u64(w->ioErrors());
            fp.u64(w->overflows());
            fp.u64(w->churns());
        }
        for (double us : r.lat_us.raw())
            fp.f64(us);
        r.checks.push_back(
            {"issued = completed + failed + dropped",
             arrivals == settled,
             fmt("%.0f issued, %.0f settled", double(arrivals),
                 double(settled))});
        r.checks.push_back({"nothing stranded after drain",
                            drained_ && stranded == 0,
                            fmt("%.0f outstanding", double(stranded))});

        // QoS conservation: every request the IOhosts offered to the
        // scheduler was admitted and completed, or shed (in flight is
        // 0 after the drain).  Offered = client sends (first tries plus
        // retransmissions) less the duplicates the IOhost suppressed
        // before scheduling.
        RegistrySnapshot end = RegistrySnapshot::take(registry());
        double offered = double(issued) +
                         end.probe("transport.rtq.retransmissions") -
                         end.probe("iohost.dedup.suppressed");
        double completed = double(end.hist("qos.tenant.latency_us").count);
        double shed = double(end.counter("qos.admission.shed"));
        double held = end.probe("repl.held_responses");
        r.checks.push_back(
            {"QoS admitted = completed + shed + in flight",
             offered == completed + shed && held == 0,
             fmt("offered %.0f, completed+shed %.0f", offered,
                 completed + shed)});
    }

  private:
    struct Mark
    {
        uint64_t issued = 0, ops = 0, errors = 0, overflows = 0;
        size_t samples = 0;
    };

    std::vector<Mark>
    marks() const
    {
        std::vector<Mark> out;
        for (auto &w : wls_)
            out.push_back(Mark{w->opsIssued(), w->opsCompleted(),
                               w->ioErrors(), w->overflows(),
                               w->latencyUs().raw().size()});
        return out;
    }

    uint64_t
    encrypted() const
    {
        uint64_t n = 0;
        for (const CountingEncryption *s : services_)
            n += s->payloads.load(std::memory_order_relaxed);
        return n;
    }

    Bytes key_;
    std::vector<CountingEncryption *> services_;
    std::vector<std::unique_ptr<interpose::Chain>> chains_;
    std::vector<std::unique_ptr<workloads::OpenLoopBlock>> wls_;
    std::vector<Mark> marks0_;
    uint64_t enc0_ = 0;
    bool drained_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(std::string_view name)
{
    if (name == "rack_read_coalesce")
        return std::make_unique<RackRead>(1);
    if (name == "rack_read_sharded")
        return std::make_unique<RackRead>(2);
    if (name == "rr_small")
        return std::make_unique<RrSmall>();
    if (name == "tenant_write_repl")
        return std::make_unique<TenantWriteRepl>();
    return nullptr;
}

namespace {

void
setUp(Workload &wl, const RunSpec &spec, SpanLog &log, int parent,
      RepResult &r)
{
    r.ctor_s = log.timed("setup.ctor", parent, [&] { wl.construct(spec); });
    r.settle_s = log.timed("setup.settle", parent, [&] { wl.settle(); });
    r.prefill_s = log.timed("setup.prefill", parent, [&] { wl.prefill(); });
    r.start_s = log.timed("setup.start", parent, [&] { wl.start(); });
}

} // namespace

RepResult
runSetupOnly(Workload &wl, const RunSpec &spec)
{
    RepResult r;
    SpanLog off(false);
    setUp(wl, spec, off, -1, r);
    return r;
}

RepResult
runRep(Workload &wl, const RunSpec &spec, SpanLog &log)
{
    RepResult r;
    int rep = log.open("rep", -1);
    Clock::time_point t0 = Clock::now();
    setUp(wl, spec, log, rep, r);
    r.warmup_s = log.timed("run.warmup", rep,
                           [&] { wl.advance(wl.warmupTicks()); });
    r.before = RegistrySnapshot::take(wl.registry());
    wl.beginWindow(r);
    r.run_s = log.timed("run.measure", rep,
                        [&] { wl.advance(wl.measureTicks()); });
    wl.endWindow(r);
    r.after = RegistrySnapshot::take(wl.registry());
    r.drain_s = log.timed("check.drain", rep, [&] { wl.drain(); });
    r.verify_s = log.timed("check.verify", rep, [&] {
        Fingerprint fp;
        wl.verify(r, fp);
        fp.registry(wl.registry());
        r.fingerprint = fp.value();
    });
    log.close(rep, t0, Clock::now());
    return r;
}

} // namespace perfbench
