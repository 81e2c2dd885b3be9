/**
 * @file
 * The Elvis I/O model: per-VMhost polling sidecores + ELI (the
 * state of the art the paper compares against, Har'El et al. 2013).
 *
 * Guests post virtio requests without exiting; a dedicated sidecore
 * polls the rings and runs the back-end, delivering completions via
 * exitless IPIs.  The physical NIC, however, is driven the standard
 * interrupt way — the host interrupts that vRIO eliminates by polling
 * at the IOhost (Table 3: 0 exits, 2 guest interrupts, 0 injections,
 * 2 host interrupts).
 */
#ifndef VRIO_MODELS_ELVIS_HPP
#define VRIO_MODELS_ELVIS_HPP

#include <map>

#include "block/disk_scheduler.hpp"
#include "models/io_model.hpp"
#include "models/virtio_blk_dev.hpp"
#include "models/virtio_net_dev.hpp"

namespace vrio::models {

class ElvisModel : public IoModel
{
  public:
    ElvisModel(Rack &rack, ModelConfig cfg);
    ~ElvisModel() override;

    GuestEndpoint &guest(unsigned vm_index) override;
    std::vector<const sim::Resource *> ioResources() const override;

    /** The sidecore core of (host, sidecore-slot). */
    hv::Core &sidecore(unsigned host, unsigned s);

  protected:
    const hv::Vm &vmAt(unsigned vm_index) const override;

  private:
    class Endpoint;

    struct Host
    {
        std::unique_ptr<hv::Machine> machine;
        std::unique_ptr<net::Nic> nic;
        unsigned first_sidecore = 0;
        unsigned num_sidecores = 1;
        std::vector<Endpoint *> vms;
        /** Frames taken per NIC interrupt (reused, not reallocated). */
        std::vector<net::FramePtr> rx_batch;
        /**
         * VMs with unpolled TX work, per sidecore slot, keyed by VM
         * index.  Keyed (rather than a set of pointers) so that drain
         * order never depends on heap addresses — pointer ordering
         * varies with the thread's allocation history and broke
         * run-to-run determinism under the parallel sweep runner.
         */
        std::vector<std::map<unsigned, Endpoint *>> tx_pending;
        std::vector<bool> pump_scheduled;
    };

    std::vector<Host> hosts;
    std::vector<std::unique_ptr<Endpoint>> endpoints;

    net::Nic &hostNic(unsigned host);
    void notifyTx(unsigned host, Endpoint *ep);
    void pumpSidecore(unsigned host, unsigned s);
    void nicRxInterrupt(unsigned host, unsigned queue);
    Endpoint *endpointByMac(unsigned host, net::MacAddress mac);
};

} // namespace vrio::models

#endif // VRIO_MODELS_ELVIS_HPP
