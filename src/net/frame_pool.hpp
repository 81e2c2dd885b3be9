/**
 * @file
 * Recycling allocator for Frame objects.
 *
 * Every simulated packet needs a Frame, its payload vector and the
 * shared_ptr control block that counts its references; across the
 * NIC/link/switch/transport path those allocations (and their frees)
 * dominated bench wall-clock.  The pool keeps returned Frames — with
 * their payload capacity — and the freed control blocks on per-thread
 * free lists, so steady-state traffic reuses warm memory instead of
 * hitting the allocator per packet.
 *
 * The pool is thread-local: each sweep cell (one Simulation per
 * worker thread) gets its own free list, so parallel benches share
 * nothing.  Frames are created and released on the same thread in
 * normal use; a frame released on a thread whose pool is gone is
 * simply deleted.
 */
#ifndef VRIO_NET_FRAME_POOL_HPP
#define VRIO_NET_FRAME_POOL_HPP

#include <vector>

#include "net/frame.hpp"

namespace vrio::net {

namespace detail {
/** shared_ptr deleter target: return @p frame to its thread's pool. */
void recycleFrame(Frame *frame);
/** Control-block memory for acquire()'s shared_ptrs. */
void *allocControlBlock(size_t bytes);
void freeControlBlock(void *block);
} // namespace detail

class FramePool
{
  public:
    FramePool();
    ~FramePool();

    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    /** The calling thread's pool. */
    static FramePool &local();

    /**
     * An empty Frame (cleared fields, retained payload capacity),
     * recycled back here when the last reference drops.
     */
    FramePtr acquire();

    // -- statistics ------------------------------------------------
    uint64_t reused() const { return reused_; }
    uint64_t allocated() const { return allocated_; }
    size_t freeListSize() const { return free.size(); }
    /** Control blocks taken from the heap rather than the free list. */
    uint64_t blocksAllocated() const { return blocks_allocated_; }

  private:
    /** Free-list bound; beyond this, released frames are deleted. */
    static constexpr size_t kMaxFree = 4096;
    /** Don't hoard jumbo payload buffers (TSO bursts). */
    static constexpr size_t kMaxRetainedCapacity = 64 * 1024;

    std::vector<Frame *> free;
    /**
     * Freed control blocks.  acquire() creates one control-block type,
     * so every block has block_bytes_ and any entry fits any request.
     */
    std::vector<void *> free_blocks;
    size_t block_bytes_ = 0;
    uint64_t reused_ = 0;
    uint64_t allocated_ = 0;
    uint64_t blocks_allocated_ = 0;

    friend void detail::recycleFrame(Frame *frame);
    friend void *detail::allocControlBlock(size_t bytes);
    friend void detail::freeControlBlock(void *block);
    void release(Frame *frame);
};

} // namespace vrio::net

#endif // VRIO_NET_FRAME_POOL_HPP
