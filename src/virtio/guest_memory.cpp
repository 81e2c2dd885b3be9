#include "virtio/guest_memory.hpp"

#include <cstring>

#include "util/logging.hpp"

namespace vrio::virtio {

GuestMemory::GuestMemory(size_t size) : mem(size)
{
    vrio_assert(size > 0, "guest memory must be non-empty");
    free_list[0] = size;
}

uint64_t
GuestMemory::alloc(size_t size, size_t align)
{
    vrio_assert(size > 0, "zero-size allocation");
    vrio_assert(align > 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
    for (auto it = free_list.begin(); it != free_list.end(); ++it) {
        uint64_t base = it->first;
        size_t avail = it->second;
        uint64_t aligned = (base + align - 1) & ~uint64_t(align - 1);
        uint64_t pad = aligned - base;
        if (pad + size > avail)
            continue;
        // Carve [aligned, aligned+size) out of this extent.
        size_t tail = avail - pad - size;
        free_list.erase(it);
        if (pad > 0)
            free_list[base] = pad;
        if (tail > 0)
            free_list[aligned + size] = tail;
        live[aligned] = size;
        allocated_bytes += size;
        return aligned;
    }
    vrio_panic("guest memory exhausted: need ", size, " bytes, ",
               mem.size() - allocated_bytes, " free (fragmented)");
}

void
GuestMemory::free(uint64_t addr)
{
    auto it = live.find(addr);
    vrio_assert(it != live.end(), "free of unallocated address ", addr);
    size_t len = it->second;
    live.erase(it);
    allocated_bytes -= len;

    // Insert and coalesce with neighbours.
    auto [pos, inserted] = free_list.emplace(addr, len);
    vrio_assert(inserted, "double free at ", addr);
    // Merge with next extent.
    auto next = std::next(pos);
    if (next != free_list.end() && pos->first + pos->second == next->first) {
        pos->second += next->second;
        free_list.erase(next);
    }
    // Merge with previous extent.
    if (pos != free_list.begin()) {
        auto prev = std::prev(pos);
        if (prev->first + prev->second == pos->first) {
            prev->second += pos->second;
            free_list.erase(pos);
        }
    }
}

void
GuestMemory::check(uint64_t addr, size_t len) const
{
    if (addr + len > mem.size() || addr + len < addr) {
        vrio_panic("guest memory access out of bounds: [", addr, ", ",
                   addr + len, ") of ", mem.size());
    }
}

void
GuestMemory::write(uint64_t addr, std::span<const uint8_t> data)
{
    check(addr, data.size());
    std::memcpy(mem.data() + addr, data.data(), data.size());
}

void
GuestMemory::fill(uint64_t addr, size_t len, uint8_t value)
{
    check(addr, len);
    std::memset(mem.data() + addr, value, len);
}

Bytes
GuestMemory::read(uint64_t addr, size_t len) const
{
    check(addr, len);
    return Bytes(mem.data() + addr, mem.data() + addr + len);
}

std::span<uint8_t>
GuestMemory::window(uint64_t addr, size_t len)
{
    check(addr, len);
    return {mem.data() + addr, len};
}

std::span<const uint8_t>
GuestMemory::window(uint64_t addr, size_t len) const
{
    check(addr, len);
    return {mem.data() + addr, len};
}

uint16_t
GuestMemory::readU16(uint64_t addr) const
{
    check(addr, 2);
    return uint16_t(mem[addr]) | uint16_t(mem[addr + 1]) << 8;
}

uint32_t
GuestMemory::readU32(uint64_t addr) const
{
    check(addr, 4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(mem[addr + i]) << (8 * i);
    return v;
}

uint64_t
GuestMemory::readU64(uint64_t addr) const
{
    check(addr, 8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(mem[addr + i]) << (8 * i);
    return v;
}

void
GuestMemory::writeU16(uint64_t addr, uint16_t v)
{
    check(addr, 2);
    mem[addr] = uint8_t(v);
    mem[addr + 1] = uint8_t(v >> 8);
}

void
GuestMemory::writeU32(uint64_t addr, uint32_t v)
{
    check(addr, 4);
    for (int i = 0; i < 4; ++i)
        mem[addr + i] = uint8_t(v >> (8 * i));
}

void
GuestMemory::writeU64(uint64_t addr, uint64_t v)
{
    check(addr, 8);
    for (int i = 0; i < 8; ++i)
        mem[addr + i] = uint8_t(v >> (8 * i));
}

} // namespace vrio::virtio
