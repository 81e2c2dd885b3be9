/**
 * @file
 * Two-level reassembly at the receiving side of the vRIO channel.
 *
 * Level 1 (Reassembler): wire segments (TSO splits of one transport
 * message) -> complete transport message.  Keyed by (source MAC,
 * wire message id); byte offsets come from the fake TCP sequence
 * numbers.  Incomplete messages expire after a timeout, modelling the
 * receiver discarding stale partial SKB chains when a segment was
 * lost.
 *
 * Level 2 (MessageAssembler): multiple transport messages that a
 * driver software-segmented (block payloads larger than the 64KB TSO
 * bound, Section 4.3) -> the original request payload.
 */
#ifndef VRIO_TRANSPORT_REASSEMBLY_HPP
#define VRIO_TRANSPORT_REASSEMBLY_HPP

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "transport/encap.hpp"

namespace vrio::transport {

/** A fully reassembled transport message. */
struct Message
{
    TransportHeader hdr;
    Bytes payload;
    net::MacAddress src;
    net::MacAddress dst;
    /** Whether reassembly stayed within the zero-copy page budget. */
    bool zero_copy = true;
};

class Reassembler
{
  public:
    /**
     * @param eq event queue for partial-message expiry.
     * @param mtu the channel MTU (for zero-copy accounting).
     * @param timeout how long a partial message may linger.
     */
    Reassembler(sim::EventQueue &eq, uint32_t mtu,
                sim::Tick timeout = sim::Tick(50) * sim::kMillisecond);

    /**
     * Feed one received frame.  Non-vRIO frames are ignored (counted).
     * @return a complete message when this frame finishes one.
     */
    std::optional<Message> feed(const net::Frame &frame);

    size_t partialCount() const { return partials.size(); }
    uint64_t messagesCompleted() const { return completed; }
    uint64_t partialsExpired() const { return expired; }
    uint64_t foreignFrames() const { return foreign; }
    uint64_t duplicateSegments() const { return duplicate_segments; }
    /** Messages whose size/MTU forced a copying reassembly. */
    uint64_t copiedReassemblies() const { return copied; }
    /** Complete messages dropped by the end-to-end checksum. */
    uint64_t checksumDrops() const { return checksum_drops; }

  private:
    struct Key
    {
        uint64_t src_mac;
        uint32_t wire_msg_id;
        auto operator<=>(const Key &) const = default;
    };
    /**
     * A message being reassembled.  The header bytes and the payload
     * are kept apart so that the payload buffer can be handed to the
     * Message as is; together they are the message's bytes, dense from
     * offset 0 to the furthest segment end seen.
     */
    struct Partial
    {
        std::array<uint8_t, TransportHeader::kSize> head{};
        Bytes payload; ///< message bytes from offset kSize on
        /** (offset, length) of every accepted segment. */
        std::vector<std::pair<uint32_t, uint32_t>> extents;
        uint32_t bytes_received = 0;
        std::optional<uint32_t> expected_total; ///< from offset-0 hdr
        net::MacAddress src;
        net::MacAddress dst;
        sim::Tick last_activity = 0;
    };
    using PartialMap = std::map<Key, Partial>;

    sim::EventQueue &eq;
    uint32_t mtu;
    sim::Tick timeout;
    PartialMap partials;
    /** Nodes of finished partials, reused (with their capacity). */
    std::vector<PartialMap::node_type> spare;

    uint64_t completed = 0;
    uint64_t expired = 0;
    uint64_t foreign = 0;
    uint64_t duplicate_segments = 0;
    uint64_t copied = 0;
    uint64_t checksum_drops = 0;
    bool sweep_scheduled = false;

    void scheduleSweep();
    void sweep();
    PartialMap::iterator partialFor(const Key &key);
    void drop(PartialMap::iterator it);
    std::optional<Message> tryComplete(PartialMap::iterator it);
};

/** Level-2 assembly of software-segmented multi-part requests. */
class MessageAssembler
{
  public:
    /** A fully assembled request (all parts concatenated). */
    struct Assembled
    {
        TransportHeader hdr; ///< header of part 0 (part/parts cleared)
        Bytes payload;
        net::MacAddress src;
        /** True only if every part reassembled zero-copy. */
        bool zero_copy = true;
    };

    /**
     * Feed a complete transport message; returns the assembled
     * request when all of its parts have arrived.  Single-part
     * messages pass straight through.
     */
    std::optional<Assembled> feed(Message msg);

    size_t pendingGroups() const { return groups.size(); }

    /**
     * Drop partially assembled state for a given request (used when
     * a retransmitted generation supersedes an old one).
     */
    void dropRequest(uint32_t device_id, uint64_t serial);

  private:
    struct GroupKey
    {
        uint64_t src_mac;
        uint32_t device_id;
        uint64_t serial;
        uint16_t generation;
        auto operator<=>(const GroupKey &) const = default;
    };
    struct Group
    {
        std::map<uint16_t, Message> parts;
        uint16_t expected_parts = 0;
    };

    std::map<GroupKey, Group> groups;
};

/**
 * Server-side half of the Section 4.5 unique-id rule: sequence-based
 * duplicate suppression for idempotent retries.  A retransmitted block
 * request whose original is still executing must not run twice; the
 * filter tracks requests in service by (device, serial) and remembers
 * the newest generation seen so the eventual response can be stamped
 * with a generation the client's retransmit queue still accepts.
 */
class DuplicateFilter
{
  public:
    /**
     * Offer an arriving request.  @return true when it is new and
     * should execute; false when an older generation is already in
     * service (the duplicate is suppressed, but its generation is
     * recorded for response stamping).
     */
    bool admit(uint32_t device_id, uint64_t serial, uint16_t generation);

    /** Bind the in-service entry to the worker executing it. */
    void bind(uint32_t device_id, uint64_t serial, unsigned worker);

    /**
     * The request is completing and its response is about to leave:
     * forget the entry and return the newest generation seen, so a
     * response computed for generation g still matches a client that
     * has since retried with g+1.  @p fallback is returned when the
     * entry is gone (filter cleared by a crash, or never admitted).
     */
    uint16_t take(uint32_t device_id, uint64_t serial, uint16_t fallback);

    /**
     * Abandon every entry bound to @p worker (watchdog quarantine).
     * Their clients will retry; without this, the stale entries would
     * suppress those retries forever.  @return entries dropped.
     */
    size_t dropWorker(unsigned worker);

    /**
     * Abandon every entry of @p device_id (per-device starvation
     * quarantine: the worker is alive but this queue stopped moving,
     * so its clients' retries must be re-admitted and re-steered).
     * @return entries dropped.
     */
    size_t dropDevice(uint32_t device_id);

    /**
     * Seed an entry from a replication peer's warm state (failover
     * handoff).  Unlike admit(), seeding neither counts a suppression
     * nor bumps an existing newer generation: a live entry means the
     * client's retry beat the replay, and the retry's generation is
     * the one the response must carry.  @return true when the seeded
     * entry is new (the caller should replay the request).
     */
    bool seed(uint32_t device_id, uint64_t serial, uint16_t generation);

    /** Crash semantics: in-service state does not survive an outage. */
    void clear() { in_service.clear(); }

    uint64_t suppressed() const { return suppressed_; }
    size_t inService() const { return in_service.size(); }
    /** In-service entries of one device (starvation-watchdog input). */
    size_t inServiceOf(uint32_t device_id) const;

  private:
    struct Entry
    {
        uint16_t generation = 0;
        unsigned worker = kNoWorker;
    };
    static constexpr unsigned kNoWorker = ~0u;

    std::map<std::pair<uint32_t, uint64_t>, Entry> in_service;
    uint64_t suppressed_ = 0;
};

} // namespace vrio::transport

#endif // VRIO_TRANSPORT_REASSEMBLY_HPP
