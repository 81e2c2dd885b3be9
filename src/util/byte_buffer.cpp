#include "util/byte_buffer.hpp"

#include "util/logging.hpp"

namespace vrio {

void
ByteReader::overrun(size_t count) const
{
    vrio_panic("ByteReader overrun: need ", count, " bytes at offset ", pos,
               " of ", buf.size());
}

Bytes
ByteReader::getBytes(size_t count)
{
    need(count);
    Bytes out(buf.begin() + pos, buf.begin() + pos + count);
    pos += count;
    return out;
}

} // namespace vrio
