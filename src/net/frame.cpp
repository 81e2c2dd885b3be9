#include "net/frame.hpp"

#include "net/frame_pool.hpp"

namespace vrio::net {

FramePtr
makeFrame(const EtherHeader &hdr, std::span<const uint8_t> payload,
          uint64_t pad)
{
    FramePtr f = FramePool::local().acquire();
    f->bytes.reserve(kEtherHeaderSize + payload.size());
    ByteWriter w(f->bytes);
    hdr.encode(w);
    w.putBytes(payload);
    f->pad = pad;
    return f;
}

FramePtr
makePadFrame(const EtherHeader &hdr, uint64_t pad)
{
    return makeFrame(hdr, {}, pad);
}

} // namespace vrio::net
