#include "interpose/services.hpp"

#include "interpose/rle.hpp"
#include "util/crc32.hpp"

namespace vrio::interpose {

// -- MeteringService ------------------------------------------------

bool
MeteringService::process(IoContext &ctx, Bytes &payload)
{
    auto &m = meters[ctx.device_id];
    m.bytes += payload.size();
    ++m.ops;
    return true;
}

uint64_t
MeteringService::bytesSeen(uint32_t device_id) const
{
    auto it = meters.find(device_id);
    return it == meters.end() ? 0 : it->second.bytes;
}

uint64_t
MeteringService::opsSeen(uint32_t device_id) const
{
    auto it = meters.find(device_id);
    return it == meters.end() ? 0 : it->second.ops;
}

// -- FirewallService ------------------------------------------------

bool
FirewallService::Rule::matches(const IoContext &ctx) const
{
    if (src && *src != ctx.src)
        return false;
    if (dst && *dst != ctx.dst)
        return false;
    if (ether_type && *ether_type != ctx.ether_type)
        return false;
    return true;
}

bool
FirewallService::process(IoContext &ctx, Bytes &)
{
    for (const auto &rule : rules) {
        if (rule.matches(ctx)) {
            ++dropped;
            return false;
        }
    }
    return true;
}

// -- EncryptionService ----------------------------------------------

EncryptionService::EncryptionService(std::span<const uint8_t> key,
                                     double cycles_per_byte)
    : aes(key), cycles_per_byte(cycles_per_byte)
{}

bool
EncryptionService::process(IoContext &ctx, Bytes &payload)
{
    if (payload.empty())
        return true;
    // CTR is an involution (same op both directions) and preserves
    // length; the nonce separates devices, and sectors within a
    // block device, so shifted writes never reuse keystream bytes.
    uint64_t nonce = uint64_t(ctx.device_id) << 48;
    if (ctx.is_block)
        nonce |= ctx.sector;
    crypto::ctrXor(aes, nonce, payload);
    return true;
}

// -- SdnRewriteService ----------------------------------------------

void
SdnRewriteService::mapAddress(net::MacAddress from, net::MacAddress to)
{
    mapping[from] = to;
}

bool
SdnRewriteService::process(IoContext &ctx, Bytes &)
{
    auto it = mapping.find(ctx.dst);
    if (it != mapping.end()) {
        ctx.dst = it->second;
        ++rewrites_;
    }
    return true;
}

// -- CompressionService ----------------------------------------------

namespace {
constexpr uint32_t kCompressMagic = 0x31435256; // "VRC1"
constexpr size_t kCompressHeader = 12; // magic, orig_len, comp_len
} // namespace

bool
CompressionService::process(IoContext &ctx, Bytes &payload)
{
    if (!ctx.is_block || payload.empty())
        return true;

    if (ctx.dir == Direction::FromClient) {
        logical_bytes += payload.size();
        Bytes comp = rleCompress(payload);
        if (comp.size() + kCompressHeader > payload.size()) {
            // Incompressible: store raw (reads pass through).
            ++raw;
            compressed_bytes += payload.size();
            return true;
        }
        ++compressed;
        compressed_bytes += comp.size() + kCompressHeader;
        Bytes container;
        ByteWriter w(container);
        w.putU32le(kCompressMagic);
        w.putU32le(uint32_t(payload.size()));
        w.putU32le(uint32_t(comp.size()));
        w.putBytes(comp);
        // Pad to the original length: sector alignment is preserved.
        w.putZeros(payload.size() - container.size());
        payload = std::move(container);
        return true;
    }

    // Read path: decompress self-describing containers.
    if (payload.size() < kCompressHeader)
        return true;
    ByteReader r(payload);
    if (r.getU32le() != kCompressMagic)
        return true; // stored raw
    uint32_t orig_len = r.getU32le();
    uint32_t comp_len = r.getU32le();
    if (orig_len != payload.size() || comp_len > r.remaining())
        return false; // corrupt container
    Bytes out;
    if (!rleDecompress(r.viewBytes(comp_len), out) ||
        out.size() != orig_len) {
        return false;
    }
    payload = std::move(out);
    return true;
}

// -- DedupService ---------------------------------------------------

bool
DedupService::process(IoContext &, Bytes &payload)
{
    constexpr size_t kChunk = 4096;
    for (size_t off = 0; off < payload.size(); off += kChunk) {
        size_t n = std::min(kChunk, payload.size() - off);
        uint32_t fp =
            crc32(std::span<const uint8_t>(payload).subspan(off, n));
        ++chunks;
        if (++fingerprints[fp] > 1)
            ++duplicates;
    }
    return true;
}

} // namespace vrio::interpose
