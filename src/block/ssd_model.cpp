#include "block/ssd_model.hpp"

#include <cstring>

#include "util/logging.hpp"

namespace vrio::block {

SsdConfig
SsdConfig::pcieSx300()
{
    SsdConfig cfg;
    cfg.read_latency = sim::Tick(25) * sim::kMicrosecond;
    cfg.write_latency = sim::Tick(15) * sim::kMicrosecond;
    cfg.gbps = 21.6; // 2.7 GB/s per the SX300 datasheet
    cfg.queue_depth = 32;
    return cfg;
}

SsdConfig
SsdConfig::sata()
{
    return SsdConfig{};
}

SsdModel::SsdModel(sim::Simulation &sim, std::string name, SsdConfig cfg)
    : BlockDevice(sim, std::move(name)), cfg(cfg),
      store(cfg.capacity_bytes),
      channels(sim.events(), this->name() + ".chan", cfg.queue_depth)
{
    vrio_assert(cfg.capacity_bytes % virtio::kSectorSize == 0,
                "capacity must be sector-aligned");
}

uint64_t
SsdModel::capacitySectors() const
{
    return cfg.capacity_bytes / virtio::kSectorSize;
}

void
SsdModel::submit(BlockRequest req, BlockCallback done)
{
    bool in_range = req.endSector() <= capacitySectors() &&
                    req.endSector() >= req.sector;
    if (req.kind != virtio::BlkType::Flush && !in_range) {
        sim().events().schedule(cfg.read_latency,
                                [done = std::move(done)]() {
                                    done(virtio::BlkStatus::IoErr, {});
                                });
        return;
    }

    sim::Tick service;
    switch (req.kind) {
      case virtio::BlkType::Flush:
        service = cfg.flush_latency ? cfg.flush_latency
                                    : cfg.write_latency;
        break;
      case virtio::BlkType::Discard:
        service = cfg.trim_latency;
        break;
      case virtio::BlkType::In:
        service = cfg.read_latency +
                  sim::bytesToTicks(req.byteLength(), cfg.gbps);
        break;
      default:
        service = cfg.write_latency +
                  sim::bytesToTicks(req.byteLength(), cfg.gbps);
    }
    channels.submit(
        service, [this, req = std::move(req), done = std::move(done)]() {
            ++completed;
            uint64_t off = req.sector * virtio::kSectorSize;
            switch (req.kind) {
              case virtio::BlkType::In: {
                Bytes out(store.data() + off,
                          store.data() + off + req.byteLength());
                done(virtio::BlkStatus::Ok, std::move(out));
                break;
              }
              case virtio::BlkType::Out:
                vrio_assert(req.data.size() == req.byteLength(),
                            "short write payload");
                std::memcpy(store.data() + off, req.data.data(),
                            req.data.size());
                done(virtio::BlkStatus::Ok, {});
                break;
              case virtio::BlkType::Flush:
                done(virtio::BlkStatus::Ok, {});
                break;
              case virtio::BlkType::Discard:
                std::memset(store.data() + off, 0, req.byteLength());
                done(virtio::BlkStatus::Ok, {});
                break;
              default:
                done(virtio::BlkStatus::Unsupported, {});
            }
        });
}

} // namespace vrio::block
