/**
 * @file
 * The baseline I/O model: KVM virtio, trap and emulate.
 *
 * Guests notify the host by exiting; vhost I/O threads run on a
 * shared extra core per VMhost; completions are injected, and every
 * EOI write traps.  Table 3 row: 3 exits, 2 guest interrupts,
 * 2 injections, 2 host interrupts per request-response.
 */
#ifndef VRIO_MODELS_BASELINE_HPP
#define VRIO_MODELS_BASELINE_HPP

#include "block/disk_scheduler.hpp"
#include "models/io_model.hpp"
#include "models/virtio_blk_dev.hpp"
#include "models/virtio_net_dev.hpp"

namespace vrio::models {

class BaselineModel : public IoModel
{
  public:
    BaselineModel(Rack &rack, ModelConfig cfg);
    ~BaselineModel() override;

    GuestEndpoint &guest(unsigned vm_index) override;
    std::vector<const sim::Resource *> ioResources() const override;

  protected:
    const hv::Vm &vmAt(unsigned vm_index) const override;

  private:
    class Endpoint;

    struct Host
    {
        std::unique_ptr<hv::Machine> machine;
        std::unique_ptr<net::Nic> nic;
        unsigned io_core = 0; ///< index of the shared vhost core
        std::vector<Endpoint *> vms; ///< endpoints on this host
        /** Frames taken per NIC interrupt (reused, not reallocated). */
        std::vector<net::FramePtr> rx_batch;
    };

    std::vector<Host> hosts;
    std::vector<std::unique_ptr<Endpoint>> endpoints;

    hv::Core &ioCore(unsigned host);
    net::Nic &hostNic(unsigned host);
    void nicRxInterrupt(unsigned host);
    Endpoint *endpointByMac(unsigned host, net::MacAddress mac);
};

} // namespace vrio::models

#endif // VRIO_MODELS_BASELINE_HPP
