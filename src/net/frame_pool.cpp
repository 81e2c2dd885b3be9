#include "net/frame_pool.hpp"

#include "util/logging.hpp"

namespace vrio::net {

namespace {

/**
 * Trivially-destructible flag, so the recycler can tell whether the
 * thread's pool (a non-trivial thread_local) is still alive.  Frames
 * released after pool teardown fall back to plain delete.
 */
thread_local bool tls_pool_alive = false;

/**
 * Routes the control block of acquire()'s shared_ptr through the
 * pool.  shared_ptr rebinds it to its one internal block type.
 */
template <typename T>
struct ControlBlockAllocator
{
    using value_type = T;

    ControlBlockAllocator() = default;
    template <typename U>
    ControlBlockAllocator(const ControlBlockAllocator<U> &)
    {}

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(detail::allocControlBlock(n * sizeof(T)));
    }
    void deallocate(T *p, size_t) { detail::freeControlBlock(p); }

    template <typename U>
    bool
    operator==(const ControlBlockAllocator<U> &) const
    {
        return true;
    }
};

} // namespace

FramePool::FramePool()
{
    tls_pool_alive = true;
}

FramePool::~FramePool()
{
    tls_pool_alive = false;
    for (Frame *f : free)
        delete f;
    for (void *b : free_blocks)
        ::operator delete(b);
}

FramePool &
FramePool::local()
{
    thread_local FramePool pool;
    return pool;
}

FramePtr
FramePool::acquire()
{
    Frame *f;
    if (!free.empty()) {
        f = free.back();
        free.pop_back();
        ++reused_;
    } else {
        f = new Frame();
        ++allocated_;
    }
    return FramePtr(
        f, [](Frame *frame) { detail::recycleFrame(frame); },
        ControlBlockAllocator<Frame>());
}

void
FramePool::release(Frame *frame)
{
    if (free.size() >= kMaxFree ||
        frame->bytes.capacity() > kMaxRetainedCapacity) {
        delete frame;
        return;
    }
    frame->bytes.clear(); // keeps capacity
    frame->pad = 0;
    frame->trace_id = 0;
    frame->born = 0;
    frame->fcs_corrupt = false;
    free.push_back(frame);
}

namespace detail {

void
recycleFrame(Frame *frame)
{
    if (!tls_pool_alive) {
        delete frame;
        return;
    }
    FramePool::local().release(frame);
}

void *
allocControlBlock(size_t bytes)
{
    FramePool &pool = FramePool::local();
    if (pool.block_bytes_ == 0)
        pool.block_bytes_ = bytes;
    vrio_assert(bytes == pool.block_bytes_, "control block of ", bytes,
                " bytes in a pool of ", pool.block_bytes_, "-byte blocks");
    if (!pool.free_blocks.empty()) {
        void *b = pool.free_blocks.back();
        pool.free_blocks.pop_back();
        return b;
    }
    ++pool.blocks_allocated_;
    return ::operator new(bytes);
}

void
freeControlBlock(void *block)
{
    if (!tls_pool_alive) {
        ::operator delete(block);
        return;
    }
    auto &blocks = FramePool::local().free_blocks;
    if (blocks.size() >= FramePool::kMaxFree) {
        ::operator delete(block);
        return;
    }
    blocks.push_back(block);
}

} // namespace detail

} // namespace vrio::net
