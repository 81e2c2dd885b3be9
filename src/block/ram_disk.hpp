/**
 * @file
 * RAM-backed block device with a real data store.
 *
 * The paper uses a 1 GB ramdisk per VM to approximate future fast I/O
 * devices ("Making a Local Device Remote", Section 5).  Our RamDisk
 * keeps genuine bytes so tests can verify end-to-end data integrity
 * through the vRIO encapsulation, loss, and retransmission machinery.
 */
#ifndef VRIO_BLOCK_RAM_DISK_HPP
#define VRIO_BLOCK_RAM_DISK_HPP

#include "block/block_device.hpp"
#include "sim/resource.hpp"
#include "util/zeroed_bytes.hpp"

namespace vrio::block {

struct RamDiskConfig
{
    uint64_t capacity_bytes = 64ull << 20;
    /** Fixed per-request software/DMA overhead. */
    sim::Tick request_latency = sim::Tick(5) * sim::kMicrosecond;
    /** Copy bandwidth of the backing memory. */
    double gbps = 80.0;
    /** FLUSH service time; 0 = same as request_latency. */
    sim::Tick flush_latency = 0;
    /**
     * TRIM (Discard) service time per request.  A ramdisk deallocates
     * by dropping page references, so the default is cheaper than a
     * data-moving request.
     */
    sim::Tick trim_latency = sim::Tick(2) * sim::kMicrosecond;
};

class RamDisk : public BlockDevice
{
  public:
    RamDisk(sim::Simulation &sim, std::string name, RamDiskConfig cfg);

    uint64_t capacitySectors() const override;
    void submit(BlockRequest req, BlockCallback done) override;
    bool mirrorWrite(uint64_t sector,
                     std::span<const uint8_t> data) override;

    /** Direct peek for tests (bypasses timing). */
    Bytes peek(uint64_t sector, uint32_t nsectors) const;
    /** Direct poke for tests (bypasses timing). */
    void poke(uint64_t sector, std::span<const uint8_t> data);

  private:
    RamDiskConfig cfg;
    ZeroedBytes store;
    sim::Resource channel;

    bool inRange(const BlockRequest &req) const;
};

} // namespace vrio::block

#endif // VRIO_BLOCK_RAM_DISK_HPP
