/**
 * @file
 * Fixed-size, zero-initialised byte store that is zeroed lazily.
 *
 * Backing stores (ramdisks, SSD models, guest memory) are large and
 * mostly untouched by any one run.  A value-initialised Bytes would
 * write every byte at construction, paying a memset plus a page fault
 * per page before the first simulated event.  ZeroedBytes maps fresh
 * anonymous memory instead: the kernel hands out zero pages, a page
 * costs nothing until it is first written, and pages that are only
 * read stay the shared zero page.  Resident memory therefore tracks
 * the bytes a run touched, not the capacity it declared.
 *
 * The mapping is private to the store and unmapped when it dies, so
 * (unlike heap memory, which the allocator recycles and calloc must
 * then clear) every construction is equally cheap.  An inaccessible
 * guard page follows the last byte, so running off the end of a store
 * faults at once instead of corrupting a neighbour.
 */
#ifndef VRIO_UTIL_ZEROED_BYTES_HPP
#define VRIO_UTIL_ZEROED_BYTES_HPP

#include <cstddef>
#include <cstdint>
#include <memory>

namespace vrio {

class ZeroedBytes
{
  public:
    /** @p size bytes, all reading as zero. */
    explicit ZeroedBytes(size_t size);

    size_t size() const { return size_; }
    uint8_t *data() { return bytes.get(); }
    const uint8_t *data() const { return bytes.get(); }
    uint8_t &operator[](size_t i) { return bytes[i]; }
    uint8_t operator[](size_t i) const { return bytes[i]; }

  private:
    struct Unmap
    {
        size_t mapped; ///< bytes mapped, guard page included
        void operator()(uint8_t *p) const;
    };
    using Mapping = std::unique_ptr<uint8_t[], Unmap>;
    static Mapping map(size_t size);

    Mapping bytes;
    size_t size_;
};

} // namespace vrio

#endif // VRIO_UTIL_ZEROED_BYTES_HPP
