#include "block/ram_disk.hpp"

#include <cstring>

#include "util/logging.hpp"

namespace vrio::block {

RamDisk::RamDisk(sim::Simulation &sim, std::string name, RamDiskConfig cfg)
    : BlockDevice(sim, std::move(name)), cfg(cfg),
      store(cfg.capacity_bytes),
      channel(sim.events(), this->name() + ".chan")
{
    vrio_assert(cfg.capacity_bytes % virtio::kSectorSize == 0,
                "capacity must be sector-aligned");
}

uint64_t
RamDisk::capacitySectors() const
{
    return cfg.capacity_bytes / virtio::kSectorSize;
}

bool
RamDisk::inRange(const BlockRequest &req) const
{
    return req.endSector() <= capacitySectors() &&
           req.endSector() >= req.sector;
}

void
RamDisk::submit(BlockRequest req, BlockCallback done)
{
    if (req.kind != virtio::BlkType::Flush && !inRange(req)) {
        // Complete asynchronously for uniform caller behaviour.
        sim().events().schedule(cfg.request_latency,
                                [done = std::move(done)]() {
                                    done(virtio::BlkStatus::IoErr, {});
                                });
        return;
    }
    if (req.kind == virtio::BlkType::Out &&
        req.data.size() != req.byteLength()) {
        vrio_panic("write payload ", req.data.size(),
                   " != request length ", req.byteLength());
    }

    // FLUSH and TRIM move no data: they cost a fixed service time,
    // distinct from the transfer-sized read/write path.
    sim::Tick service;
    switch (req.kind) {
      case virtio::BlkType::Flush:
        service = cfg.flush_latency ? cfg.flush_latency
                                    : cfg.request_latency;
        break;
      case virtio::BlkType::Discard:
        service = cfg.trim_latency;
        break;
      default:
        service = cfg.request_latency +
                  sim::bytesToTicks(req.byteLength(), cfg.gbps);
    }
    channel.submit(
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
                std::memcpy(store.data() + off, req.data.data(),
                            req.data.size());
                done(virtio::BlkStatus::Ok, {});
                break;
              case virtio::BlkType::Flush:
                done(virtio::BlkStatus::Ok, {});
                break;
              case virtio::BlkType::Discard:
                // Deallocate: subsequent reads see zeroes.
                std::memset(store.data() + off, 0, req.byteLength());
                done(virtio::BlkStatus::Ok, {});
                break;
              default:
                done(virtio::BlkStatus::Unsupported, {});
            }
        });
}

bool
RamDisk::mirrorWrite(uint64_t sector, std::span<const uint8_t> data)
{
    uint64_t off = sector * virtio::kSectorSize;
    if (off + data.size() > store.size())
        return false;
    std::memcpy(store.data() + off, data.data(), data.size());
    return true;
}

Bytes
RamDisk::peek(uint64_t sector, uint32_t nsectors) const
{
    uint64_t off = sector * virtio::kSectorSize;
    uint64_t len = uint64_t(nsectors) * virtio::kSectorSize;
    vrio_assert(off + len <= store.size(), "peek out of range");
    return Bytes(store.data() + off, store.data() + off + len);
}

void
RamDisk::poke(uint64_t sector, std::span<const uint8_t> data)
{
    uint64_t off = sector * virtio::kSectorSize;
    vrio_assert(off + data.size() <= store.size(), "poke out of range");
    std::memcpy(store.data() + off, data.data(), data.size());
}

} // namespace vrio::block
