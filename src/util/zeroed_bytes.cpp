#include "util/zeroed_bytes.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "util/logging.hpp"

namespace vrio {

ZeroedBytes::ZeroedBytes(size_t size) : bytes(map(size)), size_(size) {}

ZeroedBytes::Mapping
ZeroedBytes::map(size_t size)
{
    size_t page = size_t(sysconf(_SC_PAGESIZE));
    size_t usable = (size + page - 1) / page * page;
    size_t mapped = usable + page;
    void *p = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        vrio_panic("cannot map a ", size, "-byte store");
    auto *base = static_cast<uint8_t *>(p);
    if (mprotect(base + usable, page, PROT_NONE) != 0)
        vrio_panic("cannot protect the guard page of a ", size,
                   "-byte store");
    return Mapping(base, Unmap{mapped});
}

void
ZeroedBytes::Unmap::operator()(uint8_t *p) const
{
    munmap(p, mapped);
}

} // namespace vrio
