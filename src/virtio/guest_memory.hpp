/**
 * @file
 * Flat guest-physical memory with a first-fit allocator.
 *
 * Virtqueues, packet buffers and block I/O buffers live inside a
 * GuestMemory instance, addressed by guest-physical addresses exactly
 * as a real virtio device sees them.  The baseline and Elvis models
 * share these pages between guest and host; vRIO's transport driver
 * reads them when encapsulating requests for the IOhost.
 */
#ifndef VRIO_VIRTIO_GUEST_MEMORY_HPP
#define VRIO_VIRTIO_GUEST_MEMORY_HPP

#include <cstdint>
#include <map>
#include <span>

#include "util/byte_buffer.hpp"
#include "util/zeroed_bytes.hpp"

namespace vrio::virtio {

class GuestMemory
{
  public:
    /** @param size memory size in bytes. */
    explicit GuestMemory(size_t size);

    /**
     * Allocate @p size bytes aligned to @p align; returns the guest
     * address.  Panics on exhaustion (sized experiments pre-compute
     * their footprints; exhaustion is a library bug).
     */
    uint64_t alloc(size_t size, size_t align = 8);

    /** Release a block previously returned by alloc(). */
    void free(uint64_t addr);

    /** Copy bytes into guest memory (bounds-checked). */
    void write(uint64_t addr, std::span<const uint8_t> data);

    /**
     * Set @p len bytes to @p value (bounds-checked).  Queue rings must
     * start zeroed — an NVMe completion ring's phase bits in
     * particular — regardless of what a previous tenant left behind.
     */
    void fill(uint64_t addr, size_t len, uint8_t value = 0);

    /** Copy bytes out of guest memory (bounds-checked). */
    Bytes read(uint64_t addr, size_t len) const;

    /** Bounds-checked window into the backing store. */
    std::span<uint8_t> window(uint64_t addr, size_t len);
    std::span<const uint8_t> window(uint64_t addr, size_t len) const;

    uint16_t readU16(uint64_t addr) const;
    uint32_t readU32(uint64_t addr) const;
    uint64_t readU64(uint64_t addr) const;
    void writeU16(uint64_t addr, uint16_t v);
    void writeU32(uint64_t addr, uint32_t v);
    void writeU64(uint64_t addr, uint64_t v);

    size_t size() const { return mem.size(); }
    /** Bytes currently handed out by alloc(). */
    size_t bytesAllocated() const { return allocated_bytes; }
    /** Number of live allocations. */
    size_t allocationCount() const { return live.size(); }

  private:
    ZeroedBytes mem;
    /** addr -> length of live allocations. */
    std::map<uint64_t, size_t> live;
    /** addr -> length of free extents, coalesced. */
    std::map<uint64_t, size_t> free_list;
    size_t allocated_bytes = 0;

    void check(uint64_t addr, size_t len) const;
};

} // namespace vrio::virtio

#endif // VRIO_VIRTIO_GUEST_MEMORY_HPP
