/**
 * @file
 * Timed SSD model.
 *
 * Parameterized to represent either the SATA SSDs of the paper's
 * follow-up measurement (reader throughput 75-95% of Elvis under the
 * baseline) or a FusionIO SX300-class PCIe drive (2.7 GB/s, the
 * device consolidated in Fig. 3).  Data is held in a real store so
 * integrity tests work against SSDs too.
 */
#ifndef VRIO_BLOCK_SSD_MODEL_HPP
#define VRIO_BLOCK_SSD_MODEL_HPP

#include "block/block_device.hpp"
#include "sim/resource.hpp"
#include "util/zeroed_bytes.hpp"

namespace vrio::block {

struct SsdConfig
{
    uint64_t capacity_bytes = 64ull << 20;
    sim::Tick read_latency = sim::Tick(90) * sim::kMicrosecond;
    sim::Tick write_latency = sim::Tick(40) * sim::kMicrosecond;
    /** Sustained transfer bandwidth. */
    double gbps = 4.2; ///< ~SATA-3 class
    /** Internal parallelism (concurrently served requests). */
    unsigned queue_depth = 8;
    /** FLUSH service time; 0 = same as write_latency. */
    sim::Tick flush_latency = 0;
    /**
     * TRIM (Discard) service time per request.  On flash this is an
     * FTL metadata update — slower than a cached write acknowledge,
     * much cheaper than moving the data.
     */
    sim::Tick trim_latency = sim::Tick(60) * sim::kMicrosecond;

    /** FusionIO SX300-class PCIe SSD (21.6 Gbps per the datasheet). */
    static SsdConfig pcieSx300();
    /** Commodity SATA SSD. */
    static SsdConfig sata();
};

class SsdModel : public BlockDevice
{
  public:
    SsdModel(sim::Simulation &sim, std::string name, SsdConfig cfg);

    uint64_t capacitySectors() const override;
    void submit(BlockRequest req, BlockCallback done) override;

  private:
    SsdConfig cfg;
    ZeroedBytes store;
    sim::Resource channels;
};

} // namespace vrio::block

#endif // VRIO_BLOCK_SSD_MODEL_HPP
